//! Software-defined memory backends: the DRAM → mapped-file → file ladder.
//!
//! Every [`RecMgBuffer`](crate::RecMgBuffer) keeps real row bytes behind
//! a [`TierBackend`], so a memory tier is no longer plain DRAM wearing a
//! spin-wait costume. A row is addressed by the slot the buffer's
//! metadata ([`GpuBuffer`](recmg_cache::GpuBuffer)) gave its vector; no
//! key table or free list exists on this side. Three backends implement
//! the ladder of Meta's software-defined-memory paper (device memory →
//! cached host memory → cached SSD):
//!
//! * [`DramBackend`] — heap (`Vec<u8>`) rows, byte-addressable.
//! * [`MappedFileBackend`] — an `mmap`'d temp file (`MAP_SHARED`), page-
//!   cache semantics with `madvise` hints.
//! * [`FileBackend`] — `pread`/`pwrite` on a plain temp file,
//!   block-addressable (every access is an explicit syscall).
//!
//! Costs come from the hardware, not a config literal: at
//! [`SystemBuilder::build`](crate::SystemBuilder::build) each tier marked
//! [`MemoryTier::calibrated`](crate::MemoryTier::calibrated) runs a short
//! randomized read/write probe ([`calibrate`]) and records the measured
//! hit/miss/fill nanoseconds into its `TierCost`; injected costs remain
//! available as [`TierCost::synthetic`](crate::TierCost::synthetic).
//!
//! Slow-tier misses stop blocking workers through the async fill path: a
//! bounded, duplicate-coalescing [`FillQueue`] is drained by background
//! fill threads that promote the row under the shard lock — the paper's
//! §VI-C non-blocking philosophy applied to the storage layer.
//!
//! On non-Unix targets the file-backed specs degrade to heap storage so
//! the crate still builds; the ladder is then uniform DRAM. The mapped
//! file is further gated (build.rs `recmg_mmap`) to targets where the
//! hand-rolled mmap FFI is ABI-sound — macOS and 64-bit Linux.

use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use recmg_trace::VectorKey;

use crate::config::TierCost;
use crate::json::JsonWriter;

/// Bytes per embedding row held by a backend (16 f32 dimensions — the
/// small-DLRM embedding width the serving benches model).
pub const ROW_BYTES: usize = 64;

/// Live file-backed backends (mapped or plain) holding a temp file right
/// now. Tests assert this returns to its baseline after systems drop —
/// the no-leaked-files oracle for migration stress.
static LIVE_BACKEND_FILES: AtomicUsize = AtomicUsize::new(0);

/// Monotonic suffix so concurrent backends in one process never collide
/// on a temp path.
static FILE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Number of temp files currently held by live file-backed backends.
pub fn live_backend_files() -> usize {
    LIVE_BACKEND_FILES.load(Ordering::SeqCst)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministically synthesizes the row bytes of `key`. Every backend
/// stores the same function of the key, so parity across backends is
/// bit-exact and a migrated store can be rebuilt without copying
/// bytes tier-to-tier.
pub fn synth_row(key: VectorKey, out: &mut [u8]) {
    let mut state = key.as_u64() ^ 0x5851_f42d_4c95_7f2d;
    for chunk in out.chunks_mut(8) {
        let word = splitmix64(&mut state).to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
}

/// Access-pattern hints forwarded to a backend (`madvise`-style;
/// backends without a meaningful mapping ignore them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendAdvice {
    /// Expect random row access (the demand path).
    Random,
    /// Expect a sequential sweep (calibration, bulk fills).
    Sequential,
    /// The store is about to be read hot — fault pages in.
    WillNeed,
    /// The store's pages will not be needed soon.
    DontNeed,
}

/// Which storage medium backs a tier — carried by
/// [`MemoryTier`](crate::MemoryTier) and realized per shard buffer as a
/// [`TierBackend`] instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendSpec {
    /// Heap rows ([`DramBackend`]) — the historical behaviour.
    #[default]
    Dram,
    /// `mmap`'d temp file ([`MappedFileBackend`]).
    MappedFile,
    /// `pread`/`pwrite` temp file ([`FileBackend`]).
    File,
}

impl BackendSpec {
    /// Stable lowercase name (report/bench JSON).
    pub fn name(&self) -> &'static str {
        match self {
            BackendSpec::Dram => "dram",
            BackendSpec::MappedFile => "mapped_file",
            BackendSpec::File => "file",
        }
    }

    /// Instantiates a backend with `rows` row slots. File-backed specs
    /// fall back to heap storage where the platform APIs are missing (or,
    /// for the mapped file, where the mmap FFI is not ABI-sound — see
    /// build.rs).
    pub(crate) fn create(&self, rows: usize) -> Box<dyn TierBackend> {
        let rows = rows.max(1);
        match self {
            BackendSpec::Dram => Box::new(DramBackend::new(rows)),
            #[cfg(recmg_mmap)]
            BackendSpec::MappedFile => Box::new(MappedFileBackend::new(rows)),
            #[cfg(not(recmg_mmap))]
            BackendSpec::MappedFile => Box::new(DramBackend::new(rows)),
            #[cfg(unix)]
            BackendSpec::File => Box::new(FileBackend::new(rows)),
            #[cfg(not(unix))]
            BackendSpec::File => Box::new(DramBackend::new(rows)),
        }
    }
}

/// One storage medium holding fixed-size rows at integer slots. Which
/// key lives at which slot is the buffer metadata's to say
/// ([`GpuBuffer`](recmg_cache::GpuBuffer)); backends only move bytes.
///
/// # Panics
///
/// Implementations panic on out-of-range slots or wrong-length row
/// buffers — both are caller invariant violations (the metadata hands
/// out slots below its capacity), not runtime conditions.
pub trait TierBackend: fmt::Debug + Send + Sync {
    /// The spec that created this backend.
    fn spec(&self) -> BackendSpec;

    /// Number of row slots.
    fn rows(&self) -> usize;

    /// Copies row `slot` into `out` (`ROW_BYTES` long).
    fn read_row(&self, slot: usize, out: &mut [u8]);

    /// Overwrites row `slot` with `data` (`ROW_BYTES` long).
    fn write_row(&mut self, slot: usize, data: &[u8]);

    /// Installs a batch of synthesized rows (the default loops
    /// [`write_row`](TierBackend::write_row); backends may override with a
    /// coalesced write path).
    fn fill_batch(&mut self, fills: &[(usize, VectorKey)]) {
        let mut row = [0u8; ROW_BYTES];
        for &(slot, key) in fills {
            synth_row(key, &mut row);
            self.write_row(slot, &row);
        }
    }

    /// Forwards an access-pattern hint; the default ignores it.
    fn advise(&mut self, _advice: BackendAdvice) {}
}

/// Heap-resident rows: one contiguous `Vec<u8>`.
#[derive(Debug)]
pub struct DramBackend {
    data: Vec<u8>,
    nrows: usize,
}

impl DramBackend {
    /// Allocates `rows` zeroed row slots.
    pub fn new(rows: usize) -> Self {
        let rows = rows.max(1);
        DramBackend {
            data: vec![0u8; rows * ROW_BYTES],
            nrows: rows,
        }
    }
}

impl TierBackend for DramBackend {
    fn spec(&self) -> BackendSpec {
        BackendSpec::Dram
    }

    fn rows(&self) -> usize {
        self.nrows
    }

    fn read_row(&self, slot: usize, out: &mut [u8]) {
        let off = slot * ROW_BYTES;
        out.copy_from_slice(&self.data[off..off + ROW_BYTES]);
    }

    fn write_row(&mut self, slot: usize, data: &[u8]) {
        let off = slot * ROW_BYTES;
        self.data[off..off + ROW_BYTES].copy_from_slice(data);
    }
}

// `recmg_mmap` (set by build.rs) limits this FFI to macOS and 64-bit
// Linux: the only targets where the constants below hold AND `off_t` is
// guaranteed 64 bits, so the `offset: OffT = i64` declaration matches the
// real ABI. Other Unix platforms fall back to heap storage rather than
// risk an undefined call.
#[cfg(recmg_mmap)]
mod sys {
    use std::ffi::c_void;

    /// `off_t` on the gated targets (macOS always; Linux with 64-bit
    /// pointers under both glibc and musl).
    pub type OffT = i64;

    pub const PROT_READ: i32 = 1;
    pub const PROT_WRITE: i32 = 2;
    pub const MAP_SHARED: i32 = 0x01;
    pub const MADV_RANDOM: i32 = 1;
    pub const MADV_SEQUENTIAL: i32 = 2;
    pub const MADV_WILLNEED: i32 = 3;
    pub const MADV_DONTNEED: i32 = 4;

    // std already links libc on every Unix target; declaring the three
    // calls we need avoids a dependency the offline build cannot add.
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: OffT,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
        pub fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
    }
}

#[cfg(unix)]
fn temp_backend_path(tag: &str) -> std::path::PathBuf {
    let seq = FILE_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "recmg-sdm-{}-{}-{}.bin",
        std::process::id(),
        tag,
        seq
    ))
}

/// Rows in an `mmap`'d temp file: byte-addressable loads/stores with
/// page-cache (cached host memory) semantics. The mapping and the file
/// are released in `Drop`. Only built on targets where the hand-rolled
/// mmap FFI is ABI-sound (see build.rs); elsewhere
/// [`BackendSpec::MappedFile`] degrades to heap storage.
#[cfg(recmg_mmap)]
pub struct MappedFileBackend {
    ptr: *mut u8,
    len: usize,
    nrows: usize,
    path: std::path::PathBuf,
    // Held only so the fd outlives the mapping on every platform.
    _file: std::fs::File,
}

// SAFETY: the mapping is private to this backend; all writes go through
// `&mut self` and reads through `&self`, so the usual borrow rules give
// the same guarantees a `Vec<u8>` would have.
#[cfg(recmg_mmap)]
unsafe impl Send for MappedFileBackend {}
#[cfg(recmg_mmap)]
unsafe impl Sync for MappedFileBackend {}

#[cfg(recmg_mmap)]
impl fmt::Debug for MappedFileBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MappedFileBackend")
            .field("rows", &self.nrows)
            .field("path", &self.path)
            .finish_non_exhaustive()
    }
}

#[cfg(recmg_mmap)]
impl MappedFileBackend {
    /// Creates, sizes, and maps a fresh temp file of `rows` row slots.
    ///
    /// # Panics
    ///
    /// Panics if the temp file cannot be created or mapped (an
    /// environment failure, not a recoverable serving condition).
    pub fn new(rows: usize) -> Self {
        use std::os::unix::io::AsRawFd;
        let rows = rows.max(1);
        let len = rows * ROW_BYTES;
        let path = temp_backend_path("map");
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .expect("create mapped-file backend temp file");
        file.set_len(len as u64)
            .expect("size mapped-file backend temp file");
        // SAFETY: fd is valid and sized to `len`; MAP_SHARED over our own
        // private temp file aliases nothing else in the process.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        assert!(
            !std::ptr::eq(ptr, usize::MAX as *mut std::ffi::c_void),
            "mmap failed for mapped-file backend"
        );
        LIVE_BACKEND_FILES.fetch_add(1, Ordering::SeqCst);
        MappedFileBackend {
            ptr: ptr.cast::<u8>(),
            len,
            nrows: rows,
            path,
            _file: file,
        }
    }
}

#[cfg(recmg_mmap)]
impl TierBackend for MappedFileBackend {
    fn spec(&self) -> BackendSpec {
        BackendSpec::MappedFile
    }

    fn rows(&self) -> usize {
        self.nrows
    }

    fn read_row(&self, slot: usize, out: &mut [u8]) {
        assert!(slot < self.nrows, "row slot out of range");
        assert_eq!(out.len(), ROW_BYTES, "row buffer must be ROW_BYTES");
        // SAFETY: slot bound checked above; the mapping spans nrows rows.
        unsafe {
            std::ptr::copy_nonoverlapping(
                self.ptr.add(slot * ROW_BYTES),
                out.as_mut_ptr(),
                ROW_BYTES,
            );
        }
    }

    fn write_row(&mut self, slot: usize, data: &[u8]) {
        assert!(slot < self.nrows, "row slot out of range");
        assert_eq!(data.len(), ROW_BYTES, "row buffer must be ROW_BYTES");
        // SAFETY: slot bound checked above; `&mut self` excludes readers.
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), self.ptr.add(slot * ROW_BYTES), ROW_BYTES);
        }
    }

    fn advise(&mut self, advice: BackendAdvice) {
        let madv = match advice {
            BackendAdvice::Random => sys::MADV_RANDOM,
            BackendAdvice::Sequential => sys::MADV_SEQUENTIAL,
            BackendAdvice::WillNeed => sys::MADV_WILLNEED,
            BackendAdvice::DontNeed => sys::MADV_DONTNEED,
        };
        // SAFETY: the mapping is live for the life of `self`. madvise is
        // advisory — a failure (e.g. unsupported advice) is ignorable.
        unsafe {
            let _ = sys::madvise(self.ptr.cast(), self.len, madv);
        }
    }
}

#[cfg(recmg_mmap)]
impl Drop for MappedFileBackend {
    fn drop(&mut self) {
        // SAFETY: mapping created in `new` with exactly this ptr/len and
        // never remapped.
        unsafe {
            let _ = sys::munmap(self.ptr.cast(), self.len);
        }
        let _ = std::fs::remove_file(&self.path);
        LIVE_BACKEND_FILES.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Rows in a plain temp file accessed with positioned reads/writes —
/// block-addressable storage where every row access is an explicit
/// syscall. (`O_DIRECT` is deliberately not used: its alignment contract
/// is filesystem-specific and the measured-syscall cost is the semantics
/// the ladder needs.) The file is removed in `Drop`.
#[cfg(unix)]
#[derive(Debug)]
pub struct FileBackend {
    file: std::fs::File,
    path: std::path::PathBuf,
    nrows: usize,
}

#[cfg(unix)]
impl FileBackend {
    /// Creates and sizes a fresh temp file of `rows` row slots.
    ///
    /// # Panics
    ///
    /// Panics if the temp file cannot be created.
    pub fn new(rows: usize) -> Self {
        let rows = rows.max(1);
        let path = temp_backend_path("file");
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .expect("create file backend temp file");
        file.set_len((rows * ROW_BYTES) as u64)
            .expect("size file backend temp file");
        LIVE_BACKEND_FILES.fetch_add(1, Ordering::SeqCst);
        FileBackend {
            file,
            path,
            nrows: rows,
        }
    }
}

#[cfg(unix)]
impl TierBackend for FileBackend {
    fn spec(&self) -> BackendSpec {
        BackendSpec::File
    }

    fn rows(&self) -> usize {
        self.nrows
    }

    fn read_row(&self, slot: usize, out: &mut [u8]) {
        use std::os::unix::fs::FileExt;
        assert!(slot < self.nrows, "row slot out of range");
        self.file
            .read_exact_at(out, (slot * ROW_BYTES) as u64)
            .expect("pread on file backend");
    }

    fn write_row(&mut self, slot: usize, data: &[u8]) {
        use std::os::unix::fs::FileExt;
        assert!(slot < self.nrows, "row slot out of range");
        self.file
            .write_all_at(data, (slot * ROW_BYTES) as u64)
            .expect("pwrite on file backend");
    }
}

#[cfg(unix)]
impl Drop for FileBackend {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
        LIVE_BACKEND_FILES.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One tier's measured probe results (nanoseconds per row operation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierCalibration {
    /// Tier name as declared in the topology.
    pub tier: String,
    /// Backend probed ([`BackendSpec::name`]).
    pub backend: &'static str,
    /// Rows the probe touched.
    pub probe_rows: usize,
    /// Measured resident read (the tier's hit cost).
    pub hit_ns: u64,
    /// Measured read-through — synthesize + install + read back (the
    /// tier's blocking miss cost).
    pub miss_ns: u64,
    /// Measured install — synthesize + write (the tier's fill cost).
    pub fill_ns: u64,
}

impl TierCalibration {
    /// The measured numbers as a [`TierCost`].
    pub fn cost(&self) -> TierCost {
        TierCost::synthetic(self.hit_ns, self.miss_ns, self.fill_ns)
    }

    /// Writes the probe results as one JSON object.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("tier").string(&self.tier);
            w.key("backend").string(self.backend);
            w.key("probe_rows").raw(self.probe_rows);
            w.key("hit_ns").raw(self.hit_ns);
            w.key("miss_ns").raw(self.miss_ns);
            w.key("fill_ns").raw(self.fill_ns);
        });
    }
}

/// The bind-time calibration results of every probed tier (empty when the
/// topology had no [`MemoryTier::calibrated`](crate::MemoryTier::calibrated)
/// tier). Carried by the system and surfaced in
/// [`EngineReport`](crate::EngineReport)/bench JSON.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CalibrationReport {
    /// One entry per calibrated tier, in topology (fast → slow) order.
    pub tiers: Vec<TierCalibration>,
}

impl CalibrationReport {
    /// Writes the per-tier calibrations as one JSON array.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.array(&self.tiers, TierCalibration::write_json);
    }
}

/// Runs the bind-time probe against a fresh backend of `spec`: randomized
/// installs (fill), randomized resident reads (hit), and randomized
/// read-throughs (miss), each averaged over the probe set and clamped to
/// ≥ 1 ns. `rows` bounds the probe footprint (typically the tier's
/// capacity); the probe itself touches at most 256 rows so bind time
/// stays sub-millisecond.
pub fn calibrate(spec: BackendSpec, rows: usize, tier: &str) -> TierCalibration {
    let probe_rows = rows.clamp(1, 256);
    let mut backend = spec.create(probe_rows);
    let mut state = 0x00c0_ffee_u64 ^ probe_rows as u64;
    let mut order: Vec<usize> = (0..probe_rows).collect();
    // Fisher–Yates off splitmix64: the probe's only randomness source
    // (no rand dependency in this crate).
    for i in (1..probe_rows).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    // Probe keys live in the top table id so they never collide with a
    // real workload's rows (table ids pack into 16 bits).
    let key_of = |slot: usize| {
        VectorKey::new(
            recmg_trace::TableId(0xFFFF),
            recmg_trace::RowId(slot as u64),
        )
    };
    let mut row = [0u8; ROW_BYTES];

    backend.advise(BackendAdvice::Sequential);
    let start = Instant::now();
    for &slot in &order {
        synth_row(key_of(slot), &mut row);
        backend.write_row(slot, &row);
    }
    let fill_ns = per_op_ns(start, probe_rows);

    backend.advise(BackendAdvice::Random);
    const READ_PASSES: usize = 4;
    let start = Instant::now();
    for _ in 0..READ_PASSES {
        for &slot in &order {
            backend.read_row(slot, &mut row);
        }
    }
    let hit_ns = per_op_ns(start, probe_rows * READ_PASSES);

    let start = Instant::now();
    for &slot in &order {
        synth_row(key_of(slot), &mut row);
        backend.write_row(slot, &row);
        backend.read_row(slot, &mut row);
    }
    // A read-through miss decomposes as install (fill) + serve (hit), so
    // its measured cost is clamped into [max(hit, fill), hit + fill]:
    // below the max, timer noise inverted the ordering on fast media;
    // above the sum, the probe double-counted overhead its parts already
    // carry. The upper clamp is also what makes the async fill plane's
    // deferred-miss charge (`miss − fill`) never exceed a hit.
    let miss_ns = per_op_ns(start, probe_rows)
        .max(hit_ns.max(fill_ns))
        .min(hit_ns.saturating_add(fill_ns));

    TierCalibration {
        tier: tier.to_string(),
        backend: spec.name(),
        probe_rows,
        hit_ns,
        miss_ns,
        fill_ns,
    }
}

fn per_op_ns(start: Instant, ops: usize) -> u64 {
    let total = start.elapsed().as_nanos() as u64;
    (total / ops.max(1) as u64).max(1)
}

/// How demand misses reach slow storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FillMode {
    /// A miss installs its row inline (read-through) — the historical
    /// behaviour, and the right one for DRAM-only topologies.
    #[default]
    Blocking,
    /// A miss is served at slow cost immediately and queued on the
    /// [`FillQueue`]; background fill threads install the row and promote
    /// it under the shard lock when the fill lands.
    Async {
        /// Background fill threads a session spawns (≥ 1).
        threads: usize,
        /// Bound on queued (uncoalesced) fills; excess misses are dropped
        /// and simply miss again later.
        queue_depth: usize,
    },
}

impl FillMode {
    /// Stable lowercase name (report/bench JSON).
    pub fn name(&self) -> &'static str {
        match self {
            FillMode::Blocking => "blocking",
            FillMode::Async { .. } => "async",
        }
    }
}

/// Counters of the async fill plane, reported as deltas per run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FillPlaneReport {
    /// Misses accepted onto the queue.
    pub queued: u64,
    /// Misses coalesced onto an already-queued fill of the same key.
    pub coalesced: u64,
    /// Misses dropped because the queue was at its bound.
    pub dropped: u64,
    /// Fills that landed (row installed and key promoted).
    pub promoted: u64,
}

impl FillPlaneReport {
    /// Counter-wise `self - before` (saturating).
    pub fn delta_since(&self, before: &FillPlaneReport) -> FillPlaneReport {
        FillPlaneReport {
            queued: self.queued.saturating_sub(before.queued),
            coalesced: self.coalesced.saturating_sub(before.coalesced),
            dropped: self.dropped.saturating_sub(before.dropped),
            promoted: self.promoted.saturating_sub(before.promoted),
        }
    }

    /// Writes the counters as one JSON object.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.object(|w| {
            w.key("queued").raw(self.queued);
            w.key("coalesced").raw(self.coalesced);
            w.key("dropped").raw(self.dropped);
            w.key("promoted").raw(self.promoted);
        });
    }
}

/// A shard buffer's handle onto the system-wide [`FillQueue`]: presence
/// of a handle is what switches the buffer's miss path to async.
#[derive(Debug, Clone)]
pub(crate) struct FillHandle {
    /// The shared queue.
    pub(crate) queue: std::sync::Arc<FillQueue>,
    /// The owning shard's id (fill threads lock this shard to promote).
    pub(crate) shard: usize,
}

#[derive(Debug, Default)]
struct FillInner {
    /// `(shard, key, fill_ns)`: the deferred fill cost travels with the
    /// entry so the promotion charges the *origin* tier's fill cost even
    /// if the shard migrates (re-prices) before the fill lands — the
    /// miss's `miss − fill` charge and the promotion's `fill` charge then
    /// always sum to the origin tier's `miss_ns`.
    queue: VecDeque<(usize, VectorKey, u64)>,
    pending: HashSet<(usize, VectorKey)>,
    /// Lives under the mutex — not an atomic — so `close()` cannot flip
    /// it between a waiter's empty-queue check and its `Condvar::wait`;
    /// an atomic flag here loses that wakeup and hangs session drain.
    closed: bool,
    /// Fills popped by [`FillQueue::pop_wait`] and not yet
    /// [`done`](FillQueue::done).
    in_hand: usize,
    /// Threads blocked in [`FillQueue::wait_idle`].
    idle_waiters: usize,
}

/// The bounded, duplicate-coalescing miss queue shared by every shard of
/// an async-fill system. Pushes come from workers under their shard lock;
/// pops come from the session's background fill threads.
#[derive(Debug)]
pub(crate) struct FillQueue {
    inner: Mutex<FillInner>,
    available: Condvar,
    /// Where [`FillQueue::wait_idle`] waits for the backlog to land.
    idle: Condvar,
    capacity: usize,
    queued: AtomicU64,
    coalesced: AtomicU64,
    dropped: AtomicU64,
    promoted: AtomicU64,
}

impl FillQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        FillQueue {
            inner: Mutex::new(FillInner::default()),
            available: Condvar::new(),
            idle: Condvar::new(),
            capacity: capacity.max(1),
            queued: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            promoted: AtomicU64::new(0),
        }
    }

    /// Enqueues a missed key for shard `shard`, carrying the fill cost
    /// the miss deferred (`fill_ns` at the tier the miss was served on).
    /// Duplicates of an in-flight fill coalesce; a full queue drops (the
    /// key will miss again and retry).
    pub(crate) fn push(&self, shard: usize, key: VectorKey, fill_ns: u64) {
        let mut inner = self.inner.lock().expect("fill queue lock");
        if inner.pending.contains(&(shard, key)) {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if inner.queue.len() >= self.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        inner.pending.insert((shard, key));
        inner.queue.push_back((shard, key, fill_ns));
        self.queued.fetch_add(1, Ordering::Relaxed);
        drop(inner);
        self.available.notify_one();
    }

    /// Blocks for the next fill; `None` once the queue is closed *and*
    /// empty (a close drains the backlog before fill threads exit). The
    /// fill is in hand until the caller reports it [`done`](Self::done).
    pub(crate) fn pop_wait(&self) -> Option<(usize, VectorKey, u64)> {
        let mut inner = self.inner.lock().expect("fill queue lock");
        loop {
            if let Some(entry) = inner.queue.pop_front() {
                inner.pending.remove(&(entry.0, entry.1));
                inner.in_hand += 1;
                return Some(entry);
            }
            if inner.closed {
                return None;
            }
            inner = self.available.wait(inner).expect("fill queue wait");
        }
    }

    /// Reports a fill from [`pop_wait`](Self::pop_wait) landed or
    /// refused, waking [`wait_idle`](Self::wait_idle) once nothing is
    /// queued or in hand.
    pub(crate) fn done(&self) {
        let mut inner = self.inner.lock().expect("fill queue lock");
        inner.in_hand -= 1;
        if inner.in_hand == 0 && inner.queue.is_empty() && inner.idle_waiters > 0 {
            self.idle.notify_all();
        }
    }

    /// Blocks until nothing is queued and no popped fill is in hand:
    /// every fill queued so far has landed (or was refused), so nothing
    /// queued before the call is left to land after it.
    pub(crate) fn wait_idle(&self) {
        let mut inner = self.inner.lock().expect("fill queue lock");
        while inner.in_hand > 0 || !inner.queue.is_empty() {
            inner.idle_waiters += 1;
            inner = self.idle.wait(inner).expect("fill queue wait");
            inner.idle_waiters -= 1;
        }
    }

    /// Non-blocking pop (synchronous drains outside a session).
    pub(crate) fn pop_now(&self) -> Option<(usize, VectorKey, u64)> {
        let mut inner = self.inner.lock().expect("fill queue lock");
        let entry = inner.queue.pop_front();
        if let Some(e) = entry {
            inner.pending.remove(&(e.0, e.1));
        }
        entry
    }

    /// Re-arms the queue for a new session (a drained session leaves it
    /// closed).
    pub(crate) fn open(&self) {
        self.inner.lock().expect("fill queue lock").closed = false;
    }

    /// Wakes every fill thread to drain the backlog and exit. The flag
    /// flips under the `inner` lock: a fill thread is either before its
    /// predicate check (it will observe `closed`) or parked in `wait`
    /// (the notify reaches it) — never in between.
    pub(crate) fn close(&self) {
        self.inner.lock().expect("fill queue lock").closed = true;
        self.available.notify_all();
    }

    /// Records one landed promotion.
    pub(crate) fn note_promoted(&self) {
        self.promoted.fetch_add(1, Ordering::Relaxed);
    }

    /// Cumulative counters (callers snapshot-and-delta per run).
    pub(crate) fn report(&self) -> FillPlaneReport {
        FillPlaneReport {
            queued: self.queued.load(Ordering::Acquire),
            coalesced: self.coalesced.load(Ordering::Acquire),
            dropped: self.dropped.load(Ordering::Acquire),
            promoted: self.promoted.load(Ordering::Acquire),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recmg_trace::{RowId, TableId};

    fn key(r: u64) -> VectorKey {
        VectorKey::new(TableId(7), RowId(r))
    }

    fn specs() -> Vec<BackendSpec> {
        vec![
            BackendSpec::Dram,
            BackendSpec::MappedFile,
            BackendSpec::File,
        ]
    }

    #[test]
    fn synth_row_is_deterministic_and_key_sensitive() {
        let mut a = [0u8; ROW_BYTES];
        let mut b = [0u8; ROW_BYTES];
        synth_row(key(1), &mut a);
        synth_row(key(1), &mut b);
        assert_eq!(a, b);
        synth_row(key(2), &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn backends_round_trip_identical_bytes() {
        let mut reference: Option<Vec<[u8; ROW_BYTES]>> = None;
        for spec in specs() {
            let mut backend = spec.create(8);
            assert_eq!(backend.rows(), 8);
            let fills: Vec<(usize, VectorKey)> = (0..8).map(|s| (s, key(s as u64 * 3))).collect();
            backend.fill_batch(&fills);
            backend.advise(BackendAdvice::WillNeed);
            let mut rows = Vec::new();
            for slot in 0..8 {
                let mut row = [0u8; ROW_BYTES];
                backend.read_row(slot, &mut row);
                rows.push(row);
            }
            match &reference {
                None => reference = Some(rows),
                Some(expect) => assert_eq!(expect, &rows, "{} diverged", spec.name()),
            }
        }
    }

    #[cfg(recmg_mmap)]
    #[test]
    fn file_backends_clean_up_temp_files() {
        // Checked on the paths, not on the process-wide live-file count:
        // sibling tests create file backends concurrently.
        let mapped = MappedFileBackend::new(4);
        let file = FileBackend::new(4);
        let paths = [mapped.path.clone(), file.path.clone()];
        assert!(live_backend_files() >= 2);
        assert!(paths.iter().all(|p| p.exists()));
        drop((mapped, file));
        assert!(paths.iter().all(|p| !p.exists()));
    }

    #[test]
    fn calibration_reports_nonzero_ordered_costs() {
        for spec in specs() {
            let cal = calibrate(spec, 4096, "probe");
            assert_eq!(cal.probe_rows, 256);
            assert!(cal.hit_ns >= 1, "{}", spec.name());
            assert!(cal.fill_ns >= 1, "{}", spec.name());
            assert!(
                cal.miss_ns >= cal.hit_ns.max(cal.fill_ns),
                "{}",
                spec.name()
            );
            let cost = cal.cost();
            assert_eq!(cost.hit_ns, cal.hit_ns);
            let json = JsonWriter::render(|w| cal.write_json(w));
            assert!(json.contains("\"backend\": "));
            assert!(json.contains(spec.name()));
        }
    }

    #[test]
    fn calibration_probe_clamps_to_capacity() {
        let cal = calibrate(BackendSpec::Dram, 3, "tiny");
        assert_eq!(cal.probe_rows, 3);
    }

    #[test]
    fn fill_queue_coalesces_bounds_and_drains() {
        let q = FillQueue::new(2);
        q.push(0, key(1), 40);
        q.push(0, key(1), 40); // coalesced
        q.push(1, key(1), 70); // distinct shard: queued
        q.push(0, key(2), 40); // over capacity: dropped
        let r = q.report();
        assert_eq!((r.queued, r.coalesced, r.dropped), (2, 1, 1));
        // Entries carry the fill cost the miss deferred.
        assert_eq!(q.pop_now(), Some((0, key(1), 40)));
        // Popping clears pending: the same key may queue again.
        q.push(0, key(1), 40);
        assert_eq!(q.report().queued, 3);
        q.close();
        // Closed but non-empty: backlog still drains.
        assert_eq!(q.pop_wait(), Some((1, key(1), 70)));
        assert_eq!(q.pop_wait(), Some((0, key(1), 40)));
        assert_eq!(q.pop_wait(), None);
        q.open();
        q.push(2, key(5), 15);
        assert_eq!(q.pop_now(), Some((2, key(5), 15)));
        q.note_promoted();
        assert_eq!(q.report().promoted, 1);
    }

    #[test]
    fn fill_queue_close_always_wakes_a_parked_waiter() {
        // Regression for the lost-wakeup race: `close()` used to flip an
        // atomic flag outside the `inner` mutex, so it could land between
        // a waiter's empty-queue check and its `Condvar::wait`, leaving
        // the waiter parked forever. With the flag under the mutex this
        // loop can never hang.
        for round in 0u64..200 {
            let q = std::sync::Arc::new(FillQueue::new(4));
            let waiter = {
                let q = std::sync::Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut drained = 0;
                    while q.pop_wait().is_some() {
                        drained += 1;
                    }
                    drained
                })
            };
            if round % 2 == 0 {
                q.push(0, key(round), 10);
            }
            q.close();
            let drained = waiter.join().expect("fill waiter exits");
            assert!(drained <= 1);
        }
    }

    #[test]
    fn fill_plane_report_delta_and_json() {
        let before = FillPlaneReport {
            queued: 5,
            coalesced: 1,
            dropped: 0,
            promoted: 4,
        };
        let now = FillPlaneReport {
            queued: 9,
            coalesced: 3,
            dropped: 2,
            promoted: 8,
        };
        let d = now.delta_since(&before);
        assert_eq!((d.queued, d.coalesced, d.dropped, d.promoted), (4, 2, 2, 4));
        let json = JsonWriter::render(|w| d.write_json(w));
        for field in ["queued", "coalesced", "dropped", "promoted"] {
            assert!(json.contains(&format!("\"{field}\": ")), "{json}");
        }
    }

    #[test]
    fn backend_spec_names_are_stable() {
        assert_eq!(BackendSpec::Dram.name(), "dram");
        assert_eq!(BackendSpec::MappedFile.name(), "mapped_file");
        assert_eq!(BackendSpec::File.name(), "file");
        assert_eq!(FillMode::Blocking.name(), "blocking");
        assert_eq!(
            FillMode::Async {
                threads: 1,
                queue_depth: 8
            }
            .name(),
            "async"
        );
    }
}
