//! Read-only memory-mapped files and typed `f32` views into them.
//!
//! This is the zero-copy substrate under the CATI1 v2 weight loader:
//! a [`MappedFile`] wraps one `mmap(2)` of a model container, and a
//! [`MapSlice`] is a bounds- and alignment-checked `f32` window into
//! it. The v2 container 64-byte-aligns every tensor payload precisely
//! so these windows are valid (f32 needs 4-byte alignment; 64 also
//! gives cache-line-aligned weight rows).
//!
//! All of this crate's unsafe memory access lives in this module (the
//! `isa` module's one unsafe call only enters the AVX2 kernel build),
//! behind two invariants established at construction time and
//! unchanged for the life of the value:
//!
//! - a `MappedFile`'s pointer/length pair describes one live private
//!   read-only mapping (or a heap buffer on non-unix platforms and on
//!   mmap failure), unmapped only in `Drop`;
//! - a `MapSlice` lies fully inside its file's bytes and starts on a
//!   4-byte boundary, so viewing it as `&[f32]` is valid.
//!
//! The mapping is `MAP_PRIVATE`, so a writer replacing the model file
//! via rename (the atomic-save path) never mutates pages already
//! mapped by a loaded model.

use std::fs::File;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// One read-only file mapping (or a heap fallback holding the same
/// bytes, on platforms without `mmap` or when mapping fails).
pub struct MappedFile {
    ptr: *const u8,
    len: usize,
    /// `Some` when the file had to be read into memory instead of
    /// mapped; `ptr` then points into this buffer.
    heap: Option<Vec<u8>>,
}

// SAFETY: the mapping is read-only and never mutated after
// construction; sharing immutable views across threads is sound.
#[allow(unsafe_code)]
unsafe impl Send for MappedFile {}
#[allow(unsafe_code)]
unsafe impl Sync for MappedFile {}

#[cfg(unix)]
mod sys {
    use core::ffi::c_void;

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    /// Maps `len` bytes of `file` read-only; `None` on failure (the
    /// caller falls back to a heap read).
    pub fn map(file: &std::fs::File, len: usize) -> Option<*const u8> {
        use std::os::unix::io::AsRawFd;
        if len == 0 {
            return None;
        }
        // SAFETY: a fresh private read-only mapping of a file we hold
        // open; the kernel validates the fd and length.
        #[allow(unsafe_code)]
        let p = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        (!p.is_null() && p as isize != -1).then_some(p as *const u8)
    }

    /// Unmaps a region previously returned by [`map`].
    pub fn unmap(ptr: *const u8, len: usize) {
        // SAFETY: `ptr`/`len` came from a successful `map` call and
        // are unmapped exactly once, in `MappedFile::drop`.
        #[allow(unsafe_code)]
        unsafe {
            munmap(ptr as *mut c_void, len);
        }
    }
}

#[cfg(not(unix))]
mod sys {
    /// No mmap on this platform: always fall back to a heap read.
    pub fn map(_file: &std::fs::File, _len: usize) -> Option<*const u8> {
        None
    }

    pub fn unmap(_ptr: *const u8, _len: usize) {}
}

impl MappedFile {
    /// Opens `path` and maps it read-only. When mapping is
    /// unavailable (non-unix, empty file, or `mmap` failure) the file
    /// is read into memory instead — [`MappedFile::is_mapped`]
    /// reports which happened, and every other operation behaves
    /// identically.
    ///
    /// # Errors
    ///
    /// Propagates the underlying open/metadata/read failure.
    pub fn open(path: &Path) -> io::Result<Arc<MappedFile>> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: file too large to map", path.display()),
            )
        })?;
        if let Some(ptr) = sys::map(&file, len) {
            return Ok(Arc::new(MappedFile {
                ptr,
                len,
                heap: None,
            }));
        }
        drop(file);
        let heap = std::fs::read(path)?;
        Ok(Arc::new(MappedFile {
            ptr: heap.as_ptr(),
            len: heap.len(),
            heap: Some(heap),
        }))
    }

    /// The file's bytes.
    pub fn bytes(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: `ptr`/`len` describe either a live read-only
        // mapping or the heap buffer owned by `self`, both immutable
        // until `Drop`.
        #[allow(unsafe_code)]
        unsafe {
            std::slice::from_raw_parts(self.ptr, self.len)
        }
    }

    /// Whether the bytes come from a real `mmap` (as opposed to the
    /// heap-read fallback).
    pub fn is_mapped(&self) -> bool {
        self.heap.is_none()
    }
}

impl Drop for MappedFile {
    fn drop(&mut self) {
        if self.heap.is_none() && self.len > 0 {
            sys::unmap(self.ptr, self.len);
        }
    }
}

impl std::fmt::Debug for MappedFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedFile")
            .field("len", &self.len)
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

/// A checked `f32` window into a [`MappedFile`]: `elems` floats
/// starting at byte `off`.
#[derive(Clone, Debug)]
pub struct MapSlice {
    file: Arc<MappedFile>,
    off: usize,
    elems: usize,
}

impl MapSlice {
    /// A window of `elems` floats at byte offset `off`.
    ///
    /// # Errors
    ///
    /// Fails when the window leaves the file's bounds or when its
    /// start address is not 4-byte aligned (possible for the
    /// heap-read fallback, whose buffer has no alignment guarantee —
    /// callers then copy instead).
    pub fn new(file: Arc<MappedFile>, off: usize, elems: usize) -> Result<MapSlice, String> {
        let bytes = elems
            .checked_mul(4)
            .and_then(|b| off.checked_add(b))
            .ok_or_else(|| format!("tensor window {off}+{elems}x4 overflows"))?;
        if bytes > file.bytes().len() {
            return Err(format!(
                "tensor window {off}..{bytes} out of bounds ({}-byte file)",
                file.bytes().len()
            ));
        }
        if !(file.bytes().as_ptr() as usize + off).is_multiple_of(std::mem::align_of::<f32>()) {
            return Err(format!("tensor window at byte {off} is not f32-aligned"));
        }
        Ok(MapSlice { file, off, elems })
    }

    /// The window as floats (native-endian reinterpretation of the
    /// little-endian file bytes; CATI1 is only written and read on
    /// little-endian hosts, which `decode` verifies by checksum
    /// before any slice is handed out).
    pub fn as_f32s(&self) -> &[f32] {
        if self.elems == 0 {
            return &[];
        }
        let base = self.file.bytes().as_ptr();
        // SAFETY: construction checked that `off..off + elems*4` is in
        // bounds and 4-byte aligned; the underlying bytes are
        // immutable for the life of `file`.
        #[allow(unsafe_code)]
        unsafe {
            std::slice::from_raw_parts(base.add(self.off).cast::<f32>(), self.elems)
        }
    }

    /// Whether the backing file is a real mapping.
    pub fn is_mapped(&self) -> bool {
        self.file.is_mapped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_file(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("cati-nn-mmap-{}-{name}", std::process::id()));
        std::fs::write(&path, bytes).expect("write temp file");
        path
    }

    #[test]
    fn maps_a_file_and_reads_every_byte() {
        let data: Vec<u8> = (0..=255u8).cycle().take(5000).collect();
        let path = tmp_file("roundtrip", &data);
        let map = MappedFile::open(&path).expect("open");
        assert_eq!(map.bytes(), &data[..]);
        #[cfg(unix)]
        assert!(map.is_mapped(), "unix open should really mmap");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn f32_windows_are_bounds_and_alignment_checked() {
        let floats: Vec<f32> = (0..32).map(|i| i as f32 * 0.5).collect();
        let mut bytes = Vec::new();
        for v in &floats {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let path = tmp_file("windows", &bytes);
        let map = MappedFile::open(&path).expect("open");
        let s = MapSlice::new(map.clone(), 16, 8).expect("aligned in-bounds window");
        assert_eq!(s.as_f32s(), &floats[4..12]);
        assert!(
            MapSlice::new(map.clone(), 0, floats.len() + 1).is_err(),
            "past-the-end window must be rejected"
        );
        assert!(
            MapSlice::new(map.clone(), usize::MAX - 2, 4).is_err(),
            "overflowing window must be rejected"
        );
        if map.is_mapped() {
            // Page-aligned base: odd byte offsets are misaligned.
            assert!(MapSlice::new(map, 2, 1).is_err());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_files_open_as_empty_bytes() {
        let path = tmp_file("empty", &[]);
        let map = MappedFile::open(&path).expect("open");
        assert!(map.bytes().is_empty());
        std::fs::remove_file(&path).ok();
    }
}
