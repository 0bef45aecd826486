//! Versioned little-endian binary container for [`FlatTrace`] (`.pimb`).
//!
//! The text format ([`FlatTrace::from_reader`]) is convenient but at 10M+
//! data the parse dominates wall-clock and the decoded trace has to be
//! materialized whole. This module defines a binary layout that is exactly
//! the CSR arrays a [`FlatTrace`] already holds, so loading is a bounds
//! check away from free:
//!
//! ```text
//! offset  size  field
//! ------  ----  ---------------------------------------------------
//!      0     4  magic  b"PIMB"
//!      4     4  version            u32 LE  (currently 1)
//!      8     4  grid width         u32 LE
//!     12     4  grid height        u32 LE
//!     16     8  num_windows        u64 LE
//!     24     8  num_data           u64 LE
//!     32     8  num_refs           u64 LE
//!     40     8  checksum           u64 LE  (FNV-1a over payload words)
//!     48   (num_data + 1) * 8      CSR offsets, u64 LE each
//!      +   num_refs * 16           FlatRef records: window, x, y, count
//!                                  (four u32 LE each)
//! ```
//!
//! The payload is 8-byte aligned end to end (offsets are 8 bytes, records
//! 16), so a memory-mapped file can be reinterpreted in place:
//! [`BinTrace::open`] maps the file, validates header + checksum + CSR
//! invariants once, and then serves `&[FlatRef]` spans straight out of the
//! mapping — zero copies, zero allocation proportional to trace size.
//! [`FlatRef`] is `#[repr(C)]` (four `u32`s, no padding, every bit pattern
//! valid), which is what makes the reinterpretation sound; the open-time
//! validation (offsets monotone and bounded, spans sorted with in-range
//! windows/coordinates) is what makes every later [`FlatView`] access
//! panic- and OOB-free even for adversarial files.
//!
//! Failure is always a typed [`BinError`]: wrong magic, unsupported
//! version, truncated or oversized input, checksum mismatch, or a
//! structural violation. Property tests in `tests/encode_props.rs` fuzz
//! corrupted and truncated buffers against this contract.
//!
//! On non-Unix or big-endian targets [`BinTrace::open`] transparently
//! falls back to decoding the file into an owned [`FlatTrace`]; the format
//! on disk is little-endian everywhere.

use crate::flat::{FlatRef, FlatTrace, FlatView};
use crate::ids::DataId;
use pim_array::grid::Grid;
use std::io::{self, Read, Write};
use std::path::Path;

/// Magic bytes opening every `.pimb` file.
pub const MAGIC: [u8; 4] = *b"PIMB";
/// Current format version.
pub const VERSION: u32 = 1;
/// Size of the fixed header in bytes.
pub const HEADER_LEN: usize = 48;
/// Size of one CSR offset entry in bytes.
pub const OFFSET_BYTES: usize = 8;
/// Size of one encoded [`FlatRef`] record in bytes.
pub const REF_BYTES: usize = 16;

/// Why a binary trace could not be decoded or mapped.
#[derive(Debug)]
pub enum BinError {
    /// The input does not start with the `PIMB` magic bytes.
    BadMagic,
    /// The container version is not supported by this build.
    BadVersion(u32),
    /// The input length does not match the header-declared layout
    /// (truncated file, mid-array cut, or trailing garbage).
    Length {
        /// Bytes the header-declared layout requires.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// The payload checksum did not match the header.
    Checksum {
        /// Checksum stored in the header.
        expected: u64,
        /// Checksum recomputed over the payload.
        actual: u64,
    },
    /// A structural invariant of the CSR arrays is violated.
    Corrupt(String),
    /// The underlying file could not be read or mapped.
    Io(std::io::Error),
}

impl core::fmt::Display for BinError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BinError::BadMagic => write!(f, "not a PIMB binary trace (bad magic)"),
            BinError::BadVersion(v) => write!(f, "unsupported PIMB version {v}"),
            BinError::Length { expected, actual } => {
                write!(f, "expected {expected} bytes, got {actual}")
            }
            BinError::Checksum { expected, actual } => write!(
                f,
                "checksum mismatch: header {expected:#018x}, payload {actual:#018x}"
            ),
            BinError::Corrupt(msg) => write!(f, "corrupt trace: {msg}"),
            BinError::Io(e) => write!(f, "trace file error: {e}"),
        }
    }
}

impl std::error::Error for BinError {}

impl From<std::io::Error> for BinError {
    fn from(e: std::io::Error) -> Self {
        BinError::Io(e)
    }
}

/// Incremental FNV-1a checksum over little-endian 64-bit payload words.
///
/// Both payload arrays are multiples of 8 bytes, so feeding them through
/// [`Checksum::update`] in any chunking that preserves 8-byte boundaries
/// (e.g. the streaming pipeline's per-chunk reads) yields the same value
/// as one pass over the concatenated payload.
#[derive(Debug, Clone, Copy)]
pub struct Checksum(u64);

impl Checksum {
    /// FNV-1a 64-bit offset basis.
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    /// FNV-1a 64-bit prime.
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Fresh accumulator.
    pub fn new() -> Checksum {
        Checksum(Self::SEED)
    }

    /// Fold `bytes` (length must be a multiple of 8) into the state.
    pub fn update(&mut self, bytes: &[u8]) {
        debug_assert_eq!(bytes.len() % 8, 0, "payload chunks are 8-byte aligned");
        for chunk in bytes.chunks_exact(8) {
            let word = u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8)"));
            self.0 = (self.0 ^ word).wrapping_mul(Self::PRIME);
        }
    }

    /// The accumulated checksum.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Checksum {
    fn default() -> Self {
        Checksum::new()
    }
}

/// Parsed and validated fixed header of a `.pimb` container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// The processor grid.
    pub grid: Grid,
    /// Number of execution windows (always >= 1).
    pub num_windows: usize,
    /// Number of data items.
    pub num_data: usize,
    /// Number of aggregated reference records.
    pub num_refs: usize,
    /// FNV-1a checksum over the payload words.
    pub checksum: u64,
}

impl Header {
    /// Parse and sanity-check the first [`HEADER_LEN`] bytes: magic,
    /// version, positive grid dims that fit the dense `u32` processor id
    /// space, window/datum counts that fit their 32-bit id types, and a
    /// total layout size that fits in `u64`.
    pub fn parse(bytes: &[u8]) -> Result<Header, BinError> {
        if bytes.len() < HEADER_LEN {
            return Err(BinError::Length {
                expected: HEADER_LEN as u64,
                actual: bytes.len() as u64,
            });
        }
        let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().expect("4 bytes"));
        let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().expect("8 bytes"));
        if bytes[0..4] != MAGIC {
            return Err(BinError::BadMagic);
        }
        let version = u32_at(4);
        if version != VERSION {
            return Err(BinError::BadVersion(version));
        }
        let width = u32_at(8);
        let height = u32_at(12);
        if width == 0 || height == 0 || width.checked_mul(height).is_none() {
            return Err(BinError::Corrupt(format!("bad grid {width}x{height}")));
        }
        let num_windows = u64_at(16);
        let num_data = u64_at(24);
        let num_refs = u64_at(32);
        let checksum = u64_at(40);
        if num_windows == 0 || num_windows > u32::MAX as u64 {
            return Err(BinError::Corrupt(format!("bad window count {num_windows}")));
        }
        if num_data > u32::MAX as u64 {
            return Err(BinError::Corrupt(format!(
                "datum count {num_data} overflows the 32-bit id space"
            )));
        }
        let header = Header {
            grid: Grid::new(width, height),
            num_windows: num_windows as usize,
            num_data: num_data as usize,
            num_refs: usize::try_from(num_refs)
                .map_err(|_| BinError::Corrupt(format!("reference count {num_refs} too large")))?,
            checksum,
        };
        // Reject layouts whose byte size cannot be represented; every
        // plausible-length check downstream then uses total_len() safely.
        header
            .checked_total_len()
            .ok_or_else(|| BinError::Corrupt("declared layout size overflows u64".to_string()))?;
        Ok(header)
    }

    /// Byte length of the CSR offsets array.
    pub fn offsets_bytes(&self) -> usize {
        (self.num_data + 1) * OFFSET_BYTES
    }

    /// Byte length of the reference records array.
    pub fn refs_bytes(&self) -> usize {
        self.num_refs * REF_BYTES
    }

    /// Total container length in bytes (header + payload).
    pub fn total_len(&self) -> u64 {
        self.checked_total_len().expect("validated at parse")
    }

    fn checked_total_len(&self) -> Option<u64> {
        let offsets = (self.num_data as u64).checked_add(1)?.checked_mul(8)?;
        let refs = (self.num_refs as u64).checked_mul(16)?;
        (HEADER_LEN as u64).checked_add(offsets)?.checked_add(refs)
    }

    fn encode(&self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[0..4].copy_from_slice(&MAGIC);
        out[4..8].copy_from_slice(&VERSION.to_le_bytes());
        out[8..12].copy_from_slice(&self.grid.width().to_le_bytes());
        out[12..16].copy_from_slice(&self.grid.height().to_le_bytes());
        out[16..24].copy_from_slice(&(self.num_windows as u64).to_le_bytes());
        out[24..32].copy_from_slice(&(self.num_data as u64).to_le_bytes());
        out[32..40].copy_from_slice(&(self.num_refs as u64).to_le_bytes());
        out[40..48].copy_from_slice(&self.checksum.to_le_bytes());
        out
    }
}

/// Validate a CSR offsets array against the header: first entry 0,
/// monotone non-decreasing, last entry exactly `num_refs`.
pub fn validate_offsets(offsets: &[u64], num_refs: u64) -> Result<(), BinError> {
    let Some((&first, rest)) = offsets.split_first() else {
        return Err(BinError::Corrupt("empty offsets array".to_string()));
    };
    if first != 0 {
        return Err(BinError::Corrupt(format!("offsets[0] = {first}, want 0")));
    }
    let mut prev = 0u64;
    for (i, &o) in rest.iter().enumerate() {
        if o < prev || o > num_refs {
            return Err(BinError::Corrupt(format!(
                "offsets[{}] = {o} breaks monotonicity (prev {prev}, refs {num_refs})",
                i + 1
            )));
        }
        prev = o;
    }
    if prev != num_refs {
        return Err(BinError::Corrupt(format!(
            "offsets end at {prev}, want num_refs = {num_refs}"
        )));
    }
    Ok(())
}

/// Validate one datum's span: every record's window/coordinates in range
/// and the span strictly sorted by `(window, y, x)` (duplicates would
/// have been aggregated by every legitimate writer).
pub fn validate_span(grid: &Grid, num_windows: usize, span: &[FlatRef]) -> Result<(), BinError> {
    for r in span {
        if r.window as usize >= num_windows || r.x >= grid.width() || r.y >= grid.height() {
            return Err(BinError::Corrupt(format!(
                "reference (window {}, x {}, y {}) outside {}x{} / {} windows",
                r.window,
                r.x,
                r.y,
                grid.width(),
                grid.height(),
                num_windows
            )));
        }
    }
    let sorted = span
        .windows(2)
        .all(|p| (p[0].window, p[0].y, p[0].x) < (p[1].window, p[1].y, p[1].x));
    if !sorted {
        return Err(BinError::Corrupt(
            "span not strictly sorted by (window, y, x)".to_string(),
        ));
    }
    Ok(())
}

/// Decode a little-endian record region (length must be a multiple of
/// [`REF_BYTES`]) into `out`, appending. Portable — used by the owned
/// decode path and the chunk-streaming reader.
pub fn decode_refs(bytes: &[u8], out: &mut Vec<FlatRef>) {
    debug_assert_eq!(bytes.len() % REF_BYTES, 0);
    let n = bytes.len() / REF_BYTES;
    out.reserve(n);
    #[cfg(target_endian = "little")]
    {
        // `FlatRef` is `#[repr(C)]` with four `u32` fields, so on a
        // little-endian target the wire image is the in-memory layout:
        // append with one bulk byte copy. The destination pointer comes
        // from the `Vec`'s own (aligned) allocation; the source may be
        // unaligned, which a byte copy permits.
        let start = out.len();
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                out.as_mut_ptr().add(start).cast::<u8>(),
                bytes.len(),
            );
            out.set_len(start + n);
        }
    }
    #[cfg(not(target_endian = "little"))]
    for rec in bytes.chunks_exact(REF_BYTES) {
        let u32_at = |o: usize| u32::from_le_bytes(rec[o..o + 4].try_into().expect("4 bytes"));
        out.push(FlatRef {
            window: u32_at(0),
            x: u32_at(4),
            y: u32_at(8),
            count: u32_at(12),
        });
    }
}

/// Decode a little-endian offsets region (length must be a multiple of
/// [`OFFSET_BYTES`]) into `out`, appending.
pub fn decode_offsets(bytes: &[u8], out: &mut Vec<u64>) {
    debug_assert_eq!(bytes.len() % OFFSET_BYTES, 0);
    let n = bytes.len() / OFFSET_BYTES;
    out.reserve(n);
    #[cfg(target_endian = "little")]
    {
        // Same bulk-copy shortcut as `decode_refs`: LE wire `u64`s are
        // the in-memory representation.
        let start = out.len();
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                out.as_mut_ptr().add(start).cast::<u8>(),
                bytes.len(),
            );
            out.set_len(start + n);
        }
    }
    #[cfg(not(target_endian = "little"))]
    for rec in bytes.chunks_exact(OFFSET_BYTES) {
        out.push(u64::from_le_bytes(rec.try_into().expect("8 bytes")));
    }
}

fn encode_ref(r: &FlatRef) -> [u8; REF_BYTES] {
    let mut out = [0u8; REF_BYTES];
    out[0..4].copy_from_slice(&r.window.to_le_bytes());
    out[4..8].copy_from_slice(&r.x.to_le_bytes());
    out[8..12].copy_from_slice(&r.y.to_le_bytes());
    out[12..16].copy_from_slice(&r.count.to_le_bytes());
    out
}

/// Encode `flat` into the binary container. Two passes over the CSR
/// arrays (checksum, then write) so nothing is buffered beyond `w`'s own
/// buffering — wrap files in a `BufWriter`.
pub fn write_flat(flat: &FlatTrace, w: &mut impl Write) -> io::Result<()> {
    let mut sum = Checksum::new();
    for &o in flat.offsets() {
        sum.update(&(o as u64).to_le_bytes());
    }
    for r in flat.refs() {
        sum.update(&encode_ref(r));
    }
    let header = Header {
        grid: flat.grid(),
        num_windows: flat.num_windows(),
        num_data: flat.num_data(),
        num_refs: flat.num_refs(),
        checksum: sum.finish(),
    };
    w.write_all(&header.encode())?;
    for &o in flat.offsets() {
        w.write_all(&(o as u64).to_le_bytes())?;
    }
    for r in flat.refs() {
        w.write_all(&encode_ref(r))?;
    }
    Ok(())
}

/// Encode `flat` into an in-memory buffer (tests and small traces).
pub fn encode_flat(flat: &FlatTrace) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        HEADER_LEN + flat.num_data() * OFFSET_BYTES + OFFSET_BYTES + flat.num_refs() * REF_BYTES,
    );
    write_flat(flat, &mut out).expect("Vec writer is infallible");
    out
}

/// Write `flat` to `path` as a binary container, returning the file size
/// in bytes.
pub fn pack_file(flat: &FlatTrace, path: impl AsRef<Path>) -> Result<u64, BinError> {
    let file = std::fs::File::create(path)?;
    let mut w = io::BufWriter::new(file);
    write_flat(flat, &mut w)?;
    w.flush()?;
    let header = Header {
        grid: flat.grid(),
        num_windows: flat.num_windows(),
        num_data: flat.num_data(),
        num_refs: flat.num_refs(),
        checksum: 0,
    };
    Ok(header.total_len())
}

/// Decode a whole in-memory buffer into an owned [`FlatTrace`].
///
/// Validates everything — length, checksum, CSR invariants — and never
/// panics on malformed input.
pub fn read_flat(bytes: &[u8]) -> Result<FlatTrace, BinError> {
    let header = Header::parse(bytes)?;
    if bytes.len() as u64 != header.total_len() {
        return Err(BinError::Length {
            expected: header.total_len(),
            actual: bytes.len() as u64,
        });
    }
    let mut sum = Checksum::new();
    sum.update(&bytes[HEADER_LEN..]);
    if sum.finish() != header.checksum {
        return Err(BinError::Checksum {
            expected: header.checksum,
            actual: sum.finish(),
        });
    }
    let offsets_end = HEADER_LEN + header.offsets_bytes();
    let mut offsets64 = Vec::new();
    decode_offsets(&bytes[HEADER_LEN..offsets_end], &mut offsets64);
    validate_offsets(&offsets64, header.num_refs as u64)?;
    let mut refs = Vec::new();
    decode_refs(&bytes[offsets_end..], &mut refs);
    let offsets: Vec<usize> = offsets64.iter().map(|&o| o as usize).collect();
    for w in offsets.windows(2) {
        validate_span(&header.grid, header.num_windows, &refs[w[0]..w[1]])?;
    }
    Ok(FlatTrace::from_sorted_parts(
        header.grid,
        header.num_windows,
        offsets,
        refs,
    ))
}

/// Read the file at `path` whole and decode it into an owned
/// [`FlatTrace`].
pub fn load_flat(path: impl AsRef<Path>) -> Result<FlatTrace, BinError> {
    let mut file = std::fs::File::open(path)?;
    // Pre-size from the file length so `read_to_end` doesn't grow-and-copy
    // its way through a gigabyte container (+1 so the final EOF probe
    // doesn't trigger one last doubling).
    let mut bytes = Vec::with_capacity(file.metadata().map_or(0, |m| m.len() as usize + 1));
    file.read_to_end(&mut bytes)?;
    read_flat(&bytes)
}

#[cfg(all(unix, target_endian = "little"))]
mod map {
    //! Minimal read-only `mmap` wrapper. The workspace vendors no `libc`
    //! crate, so the two syscalls are declared directly; `std` already
    //! links the C library on every Unix target.

    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }

    const PROT_READ: i32 = 0x1;
    const MAP_PRIVATE: i32 = 0x2;

    /// A read-only private mapping of a whole file.
    pub struct Mmap {
        ptr: *mut core::ffi::c_void,
        len: usize,
    }

    // SAFETY: the mapping is PROT_READ-only and owned for the struct's
    // lifetime; concurrent shared reads are safe.
    unsafe impl Send for Mmap {}
    unsafe impl Sync for Mmap {}

    impl core::fmt::Debug for Mmap {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            write!(f, "Mmap({} bytes)", self.len)
        }
    }

    impl Mmap {
        /// Map `len` bytes of `file` read-only. `len` must be non-zero.
        pub fn map(file: &File, len: usize) -> io::Result<Mmap> {
            debug_assert!(len > 0, "callers reject empty files first");
            // SAFETY: a fresh PROT_READ/MAP_PRIVATE mapping of a file we
            // hold open; the kernel picks the address.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(Mmap { ptr, len })
        }

        /// The mapped bytes.
        pub fn bytes(&self) -> &[u8] {
            // SAFETY: ptr/len describe a live PROT_READ mapping owned by
            // self; the slice's lifetime is tied to &self.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            // SAFETY: unmapping the exact region map() returned.
            let _ = unsafe { munmap(self.ptr, self.len) };
        }
    }
}

#[derive(Debug)]
enum Backing {
    /// Zero-copy: spans are served straight out of the mapped file.
    #[cfg(all(unix, target_endian = "little"))]
    Mapped(map::Mmap),
    /// Portable fallback (non-Unix or big-endian hosts): the file was
    /// decoded into an owned trace at open.
    Owned(FlatTrace),
}

/// A validated binary trace opened from disk, implementing [`FlatView`].
///
/// On little-endian Unix the file is memory-mapped and every accessor
/// borrows the mapping directly (zero copies); elsewhere the file is
/// decoded into an owned [`FlatTrace`] behind the same type. Either way
/// [`BinTrace::open`] fully validates the container first, so accessors
/// never panic and never read out of bounds.
#[derive(Debug)]
pub struct BinTrace {
    header: Header,
    backing: Backing,
}

impl BinTrace {
    /// Open and validate the `.pimb` file at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<BinTrace, BinError> {
        #[cfg(all(unix, target_endian = "little"))]
        {
            let file = std::fs::File::open(path)?;
            let len = file.metadata()?.len();
            if len < HEADER_LEN as u64 {
                return Err(BinError::Length {
                    expected: HEADER_LEN as u64,
                    actual: len,
                });
            }
            let mapped = map::Mmap::map(&file, len as usize)?;
            let header = Header::parse(mapped.bytes())?;
            if len != header.total_len() {
                return Err(BinError::Length {
                    expected: header.total_len(),
                    actual: len,
                });
            }
            let mut sum = Checksum::new();
            sum.update(&mapped.bytes()[HEADER_LEN..]);
            if sum.finish() != header.checksum {
                return Err(BinError::Checksum {
                    expected: header.checksum,
                    actual: sum.finish(),
                });
            }
            let trace = BinTrace {
                header,
                backing: Backing::Mapped(mapped),
            };
            let offsets = trace.mapped_offsets()?;
            validate_offsets(offsets, header.num_refs as u64)?;
            let refs = trace.mapped_refs()?;
            for w in offsets.windows(2) {
                validate_span(
                    &header.grid,
                    header.num_windows,
                    &refs[w[0] as usize..w[1] as usize],
                )?;
            }
            Ok(trace)
        }
        #[cfg(not(all(unix, target_endian = "little")))]
        {
            let flat = load_flat(path)?;
            let header = Header {
                grid: flat.grid(),
                num_windows: flat.num_windows(),
                num_data: flat.num_data(),
                num_refs: flat.num_refs(),
                checksum: 0,
            };
            Ok(BinTrace {
                header,
                backing: Backing::Owned(flat),
            })
        }
    }

    /// Wrap an owned in-memory trace behind the same type, so code that
    /// schedules from a [`BinTrace`] also accepts traces that never
    /// touched disk.
    pub fn from_flat(flat: FlatTrace) -> BinTrace {
        let header = Header {
            grid: flat.grid(),
            num_windows: flat.num_windows(),
            num_data: flat.num_data(),
            num_refs: flat.num_refs(),
            checksum: 0,
        };
        BinTrace {
            header,
            backing: Backing::Owned(flat),
        }
    }

    /// The validated container header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// Whether spans borrow a memory mapping (as opposed to the owned
    /// fallback decode).
    pub fn is_mapped(&self) -> bool {
        #[cfg(all(unix, target_endian = "little"))]
        {
            matches!(self.backing, Backing::Mapped(_))
        }
        #[cfg(not(all(unix, target_endian = "little")))]
        {
            false
        }
    }

    /// Materialize an owned [`FlatTrace`] (one copy of the CSR arrays).
    pub fn to_flat(&self) -> FlatTrace {
        match &self.backing {
            #[cfg(all(unix, target_endian = "little"))]
            Backing::Mapped(_) => {
                let offsets = self
                    .mapped_offsets()
                    .expect("validated at open")
                    .iter()
                    .map(|&o| o as usize)
                    .collect();
                let refs = self.mapped_refs().expect("validated at open").to_vec();
                FlatTrace::from_sorted_parts(
                    self.header.grid,
                    self.header.num_windows,
                    offsets,
                    refs,
                )
            }
            Backing::Owned(flat) => flat.clone(),
        }
    }

    #[cfg(all(unix, target_endian = "little"))]
    fn mapped_offsets(&self) -> Result<&[u64], BinError> {
        let Backing::Mapped(m) = &self.backing else {
            unreachable!("mapped accessors are only reached from the mapped arm");
        };
        let bytes = &m.bytes()[HEADER_LEN..HEADER_LEN + self.header.offsets_bytes()];
        // SAFETY: any initialized bytes are a valid [u64]; alignment is
        // checked below (mappings are page-aligned and HEADER_LEN is a
        // multiple of 8, so the prefix/suffix are always empty).
        let (pre, mid, post) = unsafe { bytes.align_to::<u64>() };
        if !pre.is_empty() || !post.is_empty() {
            return Err(BinError::Corrupt("offsets region misaligned".to_string()));
        }
        Ok(mid)
    }

    #[cfg(all(unix, target_endian = "little"))]
    fn mapped_refs(&self) -> Result<&[FlatRef], BinError> {
        let Backing::Mapped(m) = &self.backing else {
            unreachable!("mapped accessors are only reached from the mapped arm");
        };
        let start = HEADER_LEN + self.header.offsets_bytes();
        let bytes = &m.bytes()[start..start + self.header.refs_bytes()];
        // SAFETY: FlatRef is #[repr(C)], four u32s with no padding, and
        // every bit pattern is a valid value; on a little-endian host the
        // on-disk encoding equals the in-memory representation. Alignment
        // (4) is checked by align_to below.
        let (pre, mid, post) = unsafe { bytes.align_to::<FlatRef>() };
        if !pre.is_empty() || !post.is_empty() {
            return Err(BinError::Corrupt("records region misaligned".to_string()));
        }
        Ok(mid)
    }
}

impl FlatView for BinTrace {
    fn grid(&self) -> Grid {
        self.header.grid
    }
    fn num_windows(&self) -> usize {
        self.header.num_windows
    }
    fn num_data(&self) -> usize {
        self.header.num_data
    }
    fn num_refs(&self) -> usize {
        self.header.num_refs
    }
    fn span(&self, d: DataId) -> &[FlatRef] {
        match &self.backing {
            #[cfg(all(unix, target_endian = "little"))]
            Backing::Mapped(_) => {
                let offsets = self.mapped_offsets().expect("validated at open");
                let refs = self.mapped_refs().expect("validated at open");
                &refs[offsets[d.index()] as usize..offsets[d.index() + 1] as usize]
            }
            Backing::Owned(flat) => flat.span(d),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatRecord;
    use pim_array::grid::ProcId;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn sample_flat() -> FlatTrace {
        let grid = Grid::new(4, 3);
        let rec = |d: u32, w: u32, p: u32, c: u32| FlatRecord {
            datum: DataId(d),
            window: w,
            proc: ProcId(p),
            count: c,
        };
        FlatTrace::from_records(
            grid,
            3,
            4,
            vec![
                rec(0, 0, 0, 3),
                rec(0, 0, 11, 1),
                rec(0, 2, 6, 5),
                rec(1, 1, 9, 2),
                rec(3, 0, 5, 7),
            ],
        )
        .unwrap()
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "pimb-test-{}-{}-{tag}.pimb",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn encode_decode_round_trip() {
        let flat = sample_flat();
        let bytes = encode_flat(&flat);
        assert_eq!(bytes.len() as u64, {
            let h = Header::parse(&bytes).unwrap();
            h.total_len()
        });
        let back = read_flat(&bytes).unwrap();
        assert_eq!(back, flat);
        // canonical: re-encoding is bit-identical
        assert_eq!(encode_flat(&back), bytes);
    }

    #[test]
    fn header_rejections() {
        let flat = sample_flat();
        let bytes = encode_flat(&flat);

        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(read_flat(&bad), Err(BinError::BadMagic)));

        let mut bad = bytes.clone();
        bad[4] = 9;
        assert!(matches!(read_flat(&bad), Err(BinError::BadVersion(9))));

        let mut bad = bytes.clone();
        bad[8..12].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(read_flat(&bad), Err(BinError::Corrupt(_))));

        assert!(matches!(
            read_flat(&bytes[..HEADER_LEN - 1]),
            Err(BinError::Length { .. })
        ));
        assert!(matches!(
            read_flat(&bytes[..bytes.len() - 1]),
            Err(BinError::Length { .. })
        ));
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(read_flat(&long), Err(BinError::Length { .. })));
    }

    #[test]
    fn checksum_detects_payload_flips() {
        let flat = sample_flat();
        let bytes = encode_flat(&flat);
        for at in [HEADER_LEN, HEADER_LEN + 9, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            assert!(
                matches!(read_flat(&bad), Err(BinError::Checksum { .. })),
                "flip at {at} undetected"
            );
        }
    }

    #[test]
    fn structural_validation_catches_valid_checksum_lies() {
        // Hand-build a container whose checksum is honest but whose
        // offsets are non-monotone.
        let flat = sample_flat();
        let mut bytes = encode_flat(&flat);
        // offsets[1] <-> offsets[2]: swap two middle offsets
        let o1 = HEADER_LEN + OFFSET_BYTES;
        let o2 = o1 + OFFSET_BYTES;
        let a: [u8; 8] = bytes[o1..o1 + 8].try_into().unwrap();
        let b: [u8; 8] = bytes[o2..o2 + 8].try_into().unwrap();
        bytes[o1..o1 + 8].copy_from_slice(&b);
        bytes[o2..o2 + 8].copy_from_slice(&a);
        // re-stamp the checksum so only the structural check can object
        let mut sum = Checksum::new();
        sum.update(&bytes[HEADER_LEN..]);
        let s = sum.finish();
        bytes[40..48].copy_from_slice(&s.to_le_bytes());
        assert!(matches!(read_flat(&bytes), Err(BinError::Corrupt(_))));
    }

    #[test]
    fn mapped_open_matches_owned_decode() {
        let flat = sample_flat();
        let path = temp_path("map");
        pack_file(&flat, &path).unwrap();
        let bin = BinTrace::open(&path).unwrap();
        assert_eq!(bin.grid(), flat.grid());
        assert_eq!(FlatView::num_windows(&bin), flat.num_windows());
        assert_eq!(FlatView::num_data(&bin), flat.num_data());
        assert_eq!(FlatView::num_refs(&bin), flat.num_refs());
        assert_eq!(FlatView::total_volume(&bin), flat.total_volume());
        for d in 0..flat.num_data() {
            let d = DataId(d as u32);
            assert_eq!(FlatView::span(&bin, d), flat.span(d));
        }
        assert_eq!(bin.to_flat(), flat);
        #[cfg(all(unix, target_endian = "little"))]
        assert!(bin.is_mapped());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_rejects_corrupt_files() {
        let flat = sample_flat();
        let path = temp_path("bad");
        let mut bytes = encode_flat(&flat);
        bytes[HEADER_LEN + 3] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            BinTrace::open(&path),
            Err(BinError::Checksum { .. })
        ));
        std::fs::write(&path, &bytes[..10]).unwrap();
        assert!(matches!(
            BinTrace::open(&path),
            Err(BinError::Length { .. })
        ));
        std::fs::remove_file(&path).ok();
        assert!(matches!(BinTrace::open(&path), Err(BinError::Io(_))));
    }

    #[test]
    fn incremental_checksum_is_chunking_independent() {
        let flat = sample_flat();
        let bytes = encode_flat(&flat);
        let payload = &bytes[HEADER_LEN..];
        let mut whole = Checksum::new();
        whole.update(payload);
        let mut pieces = Checksum::new();
        let mid = (payload.len() / 2) & !7; // keep 8-byte boundaries
        pieces.update(&payload[..mid]);
        pieces.update(&payload[mid..]);
        assert_eq!(whole.finish(), pieces.finish());
    }
}
