//! Error and result types for the storage engine.

use std::fmt;
use std::io;
use std::sync::Arc;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Storage engine errors.
///
/// `Io` wraps the underlying `std::io::Error` in an `Arc` so that `Error`
/// stays `Clone` — background threads report failures to multiple waiters.
#[derive(Clone, Debug)]
pub enum Error {
    /// An operating-system I/O failure.
    Io(Arc<io::Error>),
    /// On-disk data failed a checksum or structural validation.
    Corruption(String),
    /// The caller passed an argument the engine cannot honour.
    InvalidArgument(String),
}

impl Error {
    pub fn corruption(msg: impl Into<String>) -> Error {
        Error::Corruption(msg.into())
    }

    pub fn invalid(msg: impl Into<String>) -> Error {
        Error::InvalidArgument(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io(e) => write!(f, "I/O error: {e}"),
            Error::Corruption(msg) => write!(f, "corruption: {msg}"),
            Error::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e.as_ref()),
            _ => None,
        }
    }
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Error {
        Error::Io(Arc::new(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = Error::corruption("bad block crc");
        assert_eq!(e.to_string(), "corruption: bad block crc");
        let e = Error::invalid("empty key");
        assert_eq!(e.to_string(), "invalid argument: empty key");
    }

    #[test]
    fn io_errors_are_cloneable() {
        let e: Error = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        let e2 = e.clone();
        assert!(e2.to_string().contains("gone"));
    }
}
