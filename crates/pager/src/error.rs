//! Pager error types.

use std::fmt;

use crate::page::PageId;

/// Errors raised by the segment store and buffer pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PagerError {
    /// An underlying file operation failed. The `std::io::Error` is flattened
    /// to a string so the error stays `Clone + PartialEq` like every other
    /// typed error in the workspace.
    Io {
        /// What the pager was doing when the I/O failed.
        context: String,
        /// The OS error message.
        cause: String,
    },
    /// Every frame in the pool is pinned; nothing can be evicted to make
    /// room. Callers hold too many guards for the configured budget.
    PoolExhausted {
        /// The pool's page-count budget.
        capacity: usize,
    },
    /// A page id outside the allocated segment was referenced.
    PageOutOfBounds {
        /// The offending page.
        page: PageId,
        /// Number of pages currently allocated.
        allocated: u32,
    },
    /// A buffer of the wrong length was handed to a page read or write.
    BadBufferLength {
        /// Length the caller supplied.
        actual: usize,
    },
    /// Every temp segment name tried already existed, so no segment file
    /// was created (an existing file or symlink is never opened).
    TempNamesTaken {
        /// Names tried.
        attempts: u32,
    },
}

impl fmt::Display for PagerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PagerError::Io { context, cause } => {
                write!(f, "pager I/O failure ({context}): {cause}")
            }
            PagerError::PoolExhausted { capacity } => {
                write!(f, "buffer pool exhausted: all {capacity} frames are pinned")
            }
            PagerError::PageOutOfBounds { page, allocated } => write!(
                f,
                "page {page} out of bounds: only {allocated} pages allocated"
            ),
            PagerError::BadBufferLength { actual } => write!(
                f,
                "page buffer must be exactly PAGE_SIZE bytes, got {actual}"
            ),
            PagerError::TempNamesTaken { attempts } => write!(
                f,
                "no free temp segment name: all {attempts} names tried already exist"
            ),
        }
    }
}

impl std::error::Error for PagerError {}

impl PagerError {
    /// Wraps an `io::Error` with a description of the failed operation.
    pub fn io(context: impl Into<String>, err: &std::io::Error) -> Self {
        PagerError::Io {
            context: context.into(),
            cause: err.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = PagerError::PoolExhausted { capacity: 4 };
        assert!(err.to_string().contains('4'));
        let err = PagerError::PageOutOfBounds {
            page: PageId(9),
            allocated: 3,
        };
        assert!(err.to_string().contains('9'));
        assert!(err.to_string().contains('3'));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&PagerError::PoolExhausted { capacity: 1 });
    }
}
