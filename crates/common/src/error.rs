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
    /// Wire-codec failure: a page frame was truncated, corrupted or version
    /// mismatched. Never a panic — every malformed byte stream decodes to
    /// this.
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

/// Every variant's constructor.
const KINDS: [fn(String) -> AccordionError; 8] = [
    AccordionError::Parse,
    AccordionError::Analysis,
    AccordionError::Plan,
    AccordionError::Execution,
    AccordionError::Storage,
    AccordionError::Io,
    AccordionError::Wire,
    AccordionError::Internal,
];

impl AccordionError {
    /// The error whose `Display` is `text`: the inverse of `to_string`, so
    /// an error sent between nodes as text arrives as the same variant and
    /// message. Text without a known kind prefix is an `Execution` error
    /// carrying it whole.
    pub fn from_display(text: &str) -> AccordionError {
        for kind in KINDS {
            if let Some(message) = text.strip_prefix(&kind(String::new()).to_string()) {
                return kind(message.to_string());
            }
        }
        AccordionError::Execution(text.to_string())
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

    #[test]
    fn every_variant_round_trips_through_its_display() {
        for kind in KINDS {
            for message in ["", "boom", "execution error: nested: twice"] {
                let e = kind(message.to_string());
                assert_eq!(AccordionError::from_display(&e.to_string()), e);
            }
        }
        assert_eq!(
            AccordionError::from_display("no known prefix"),
            AccordionError::Execution("no known prefix".into())
        );
    }
}
