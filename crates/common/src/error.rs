//! Engine-wide error type.

use std::fmt;

/// Engine-wide result alias.
pub type Result<T, E = AccordionError> = std::result::Result<T, E>;

/// All errors surfaced by the Accordion engine.
#[derive(Debug, Clone, PartialEq)]
pub enum AccordionError {
    /// SQL text could not be tokenized/parsed.
    Parse(String),
    /// Query analysis failed (unknown table/column, type mismatch...).
    Analysis(String),
    /// Planning or optimization failure.
    Plan(String),
    /// Runtime execution failure inside an operator or driver.
    Execution(String),
    /// Storage layer failure (catalog, CSV decode, split resolution...).
    Storage(String),
    /// I/O error (file read/write), stringified to keep the enum `Clone`.
    Io(String),
    /// Wire-codec failure: a page frame was truncated, corrupted, version
    /// mismatched, or carried an unexpected schema hash. Never a panic —
    /// every malformed byte stream decodes to this.
    Wire(String),
    /// Internal invariant violation — a bug in the engine.
    Internal(String),
}

impl fmt::Display for AccordionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccordionError::Parse(m) => write!(f, "parse error: {m}"),
            AccordionError::Analysis(m) => write!(f, "analysis error: {m}"),
            AccordionError::Plan(m) => write!(f, "planning error: {m}"),
            AccordionError::Execution(m) => write!(f, "execution error: {m}"),
            AccordionError::Storage(m) => write!(f, "storage error: {m}"),
            AccordionError::Io(m) => write!(f, "io error: {m}"),
            AccordionError::Wire(m) => write!(f, "wire error: {m}"),
            AccordionError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for AccordionError {}

impl From<std::io::Error> for AccordionError {
    fn from(e: std::io::Error) -> Self {
        AccordionError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        let e: AccordionError = io.into();
        assert!(matches!(e, AccordionError::Io(_)));
    }
}
