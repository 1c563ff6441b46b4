//! Script input — memory-mapped where the platform allows it.
//!
//! The CLI and the experiment driver both feed whole SQL dump files into
//! the splitter. Reading a multi-GB dump with `read_to_string` doubles
//! peak memory (kernel page cache + the userspace copy) and serialises
//! start-up behind the copy. On Unix, [`read_script`] instead `mmap`s the
//! file read-only and hands the splitter a `&str` view of the page cache
//! itself — zero copies, demand-paged, so the front door streams dumps
//! bigger than RAM.
//!
//! The mapping is done with direct `mmap(2)`/`munmap(2)` declarations
//! (the workspace builds without a registry, so no `libc`/`memmap2`
//! dependency). Fallbacks keep the function total:
//!
//! * empty files and non-Unix targets use a plain buffered read;
//! * a file that fails to map (exotic filesystems, `/proc` pseudo-files
//!   whose reported size is 0) falls back to `read_to_string`;
//! * invalid UTF-8 is an error either way — the splitter's contract is
//!   `&str`, and a lossy copy would silently shift every byte span.

use std::fs::File;
use std::io::{self, Read};
use std::ops::Deref;

/// A whole script, either mapped from disk or owned in memory. Derefs to
/// `str`, so call sites pass it wherever a `&str` script is expected.
#[derive(Debug)]
pub enum ScriptInput {
    /// Memory-mapped, validated UTF-8 (Unix only).
    #[cfg(unix)]
    Mapped(Mmap),
    /// Heap-owned fallback (stdin, empty files, non-Unix, map failure).
    Owned(String),
}

impl ScriptInput {
    /// View the script text.
    pub fn as_str(&self) -> &str {
        match self {
            #[cfg(unix)]
            ScriptInput::Mapped(m) => m.as_str(),
            ScriptInput::Owned(s) => s,
        }
    }

    /// Whether this input is a zero-copy mapping (used by `--stats`
    /// output and tests; always `false` off Unix).
    pub fn is_mapped(&self) -> bool {
        match self {
            #[cfg(unix)]
            ScriptInput::Mapped(_) => true,
            ScriptInput::Owned(_) => false,
        }
    }
}

impl Deref for ScriptInput {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for ScriptInput {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

/// Read the script at `path`, memory-mapping it where possible.
///
/// Returns an error if the file cannot be opened/read or is not valid
/// UTF-8 (span-addressed diagnostics require byte-exact text, so lossy
/// decoding is not an option).
pub fn read_script(path: &str) -> io::Result<ScriptInput> {
    let mut file = File::open(path)?;
    let len = file.metadata()?.len();
    #[cfg(unix)]
    {
        // mmap of length 0 is EINVAL; tiny files gain nothing either.
        if len > 0 {
            if let Some(m) = Mmap::map(&file, len as usize) {
                std::str::from_utf8(m.as_bytes()).map_err(invalid_utf8)?;
                return Ok(ScriptInput::Mapped(m));
            }
        }
    }
    let mut buf = String::with_capacity(len as usize);
    file.read_to_string(&mut buf)?;
    Ok(ScriptInput::Owned(buf))
}

/// Read all of stdin as an owned script.
pub fn read_stdin() -> io::Result<ScriptInput> {
    let mut buf = String::new();
    io::stdin().read_to_string(&mut buf)?;
    Ok(ScriptInput::Owned(buf))
}

fn invalid_utf8(e: std::str::Utf8Error) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("script is not valid UTF-8: {e}"))
}

/// A read-only, private memory mapping of a whole file.
#[cfg(unix)]
#[derive(Debug)]
pub struct Mmap {
    ptr: *mut std::ffi::c_void,
    len: usize,
}

// SAFETY: the mapping is PROT_READ + MAP_PRIVATE — immutable shared
// reads, no interior mutability.
#[cfg(unix)]
unsafe impl Send for Mmap {}
#[cfg(unix)]
unsafe impl Sync for Mmap {}

#[cfg(unix)]
impl Mmap {
    /// Map `len` bytes of `file` read-only. `None` on any mmap failure —
    /// callers fall back to a buffered read.
    fn map(file: &File, len: usize) -> Option<Mmap> {
        use std::os::unix::io::AsRawFd;

        const PROT_READ: i32 = 1;
        const MAP_PRIVATE: i32 = 2;

        extern "C" {
            fn mmap(
                addr: *mut std::ffi::c_void,
                len: usize,
                prot: i32,
                flags: i32,
                fd: i32,
                offset: i64,
            ) -> *mut std::ffi::c_void;
        }

        // SAFETY: a fresh anonymous-address, read-only, private file
        // mapping; the fd stays open only for the duration of the call
        // (the mapping survives the fd per POSIX). Failure is reported
        // as MAP_FAILED (-1), checked below.
        let ptr = unsafe {
            mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, file.as_raw_fd(), 0)
        };
        if ptr as isize == -1 || ptr.is_null() {
            return None;
        }
        Some(Mmap { ptr, len })
    }

    /// The mapped bytes.
    pub fn as_bytes(&self) -> &[u8] {
        // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
        // bytes, held until Drop.
        unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
    }

    /// The mapped text. Callers only construct `Mmap` through
    /// [`read_script`], which validates UTF-8 up front.
    pub fn as_str(&self) -> &str {
        // SAFETY: validated as UTF-8 at construction in `read_script`.
        unsafe { std::str::from_utf8_unchecked(self.as_bytes()) }
    }
}

#[cfg(unix)]
impl Drop for Mmap {
    fn drop(&mut self) {
        extern "C" {
            fn munmap(addr: *mut std::ffi::c_void, len: usize) -> i32;
        }
        // SAFETY: `ptr`/`len` are exactly what mmap returned; unmapping
        // at drop ends the borrow of the pages (no &self outlives self).
        unsafe {
            munmap(self.ptr, self.len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sqlcheck_input_test_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn maps_a_file_and_round_trips_bytes() {
        let path = temp_path("basic.sql");
        let text = "SELECT * FROM t;\nINSERT INTO t VALUES (1, 'x');\n";
        std::fs::File::create(&path).unwrap().write_all(text.as_bytes()).unwrap();
        let s = read_script(path.to_str().unwrap()).unwrap();
        assert_eq!(s.as_str(), text);
        if cfg!(unix) {
            assert!(s.is_mapped(), "non-empty file on unix should map");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_is_owned_and_empty() {
        let path = temp_path("empty.sql");
        std::fs::File::create(&path).unwrap();
        let s = read_script(path.to_str().unwrap()).unwrap();
        assert_eq!(s.as_str(), "");
        assert!(!s.is_mapped());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn invalid_utf8_is_an_error_not_a_lossy_copy() {
        let path = temp_path("bad.sql");
        std::fs::File::create(&path).unwrap().write_all(&[0x53, 0x45, 0xFF, 0xFE]).unwrap();
        let err = read_script(path.to_str().unwrap()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_errors() {
        assert!(read_script("/nonexistent/definitely/missing.sql").is_err());
    }

    #[test]
    fn mapped_input_feeds_the_splitter() {
        let path = temp_path("split.sql");
        let text = "SELECT 1; SELECT 'a;b'; CREATE TRIGGER tr BEFORE INSERT ON t \
                    FOR EACH ROW BEGIN UPDATE u SET a = 1; END;";
        std::fs::File::create(&path).unwrap().write_all(text.as_bytes()).unwrap();
        let s = read_script(path.to_str().unwrap()).unwrap();
        let stmts = sqlcheck_parser::splitter::split(&s, sqlcheck_parser::Dialect::Generic);
        assert_eq!(stmts.len(), 3, "compound body must stay one statement");
        std::fs::remove_file(&path).ok();
    }
}
