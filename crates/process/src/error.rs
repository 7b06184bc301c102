//! Error type shared by the process-description machinery.

use std::fmt;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ProcessError>;

/// Errors raised while parsing, validating, lowering, recovering or
/// enacting process descriptions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcessError {
    /// Lexical error at a byte offset.
    Lex {
        /// Byte offset in the source text.
        offset: usize,
        /// Description of the problem.
        message: String,
    },
    /// Syntax error.
    Parse {
        /// Byte offset in the source text.
        offset: usize,
        /// Description of the problem.
        message: String,
    },
    /// The activity/transition graph violates a structural rule.
    Structure(String),
    /// A graph could not be recovered into a structured AST.
    Unstructured(String),
    /// The ATN machine was driven incorrectly (e.g. completing an activity
    /// that is not running).
    Enactment(String),
}

impl fmt::Display for ProcessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Lex { offset, message } => write!(f, "lex error at byte {offset}: {message}"),
            Self::Parse { offset, message } => {
                write!(f, "parse error at byte {offset}: {message}")
            }
            Self::Structure(msg) => write!(f, "structural error: {msg}"),
            Self::Unstructured(msg) => write!(f, "cannot recover structure: {msg}"),
            Self::Enactment(msg) => write!(f, "enactment error: {msg}"),
        }
    }
}

impl std::error::Error for ProcessError {}

impl ProcessError {
    /// The byte offset carried by lexer/parser errors, if any.
    pub fn offset(&self) -> Option<usize> {
        match self {
            Self::Lex { offset, .. } | Self::Parse { offset, .. } => Some(*offset),
            _ => None,
        }
    }

    /// Render the error with a 1-based `line:column` position computed
    /// against the original source text — what the CLI shows users.
    pub fn with_position(&self, source: &str) -> String {
        match self.offset() {
            Some(offset) => {
                let (line, column) = offset_to_line_col(source, offset);
                format!("{self} (at line {line}, column {column})")
            }
            None => self.to_string(),
        }
    }
}

/// Convert a byte offset into 1-based `(line, column)` coordinates.
/// Offsets past the end report the position after the last character.
pub fn offset_to_line_col(source: &str, offset: usize) -> (usize, usize) {
    let clamped = offset.min(source.len());
    let before = &source[..clamped];
    let line = before.bytes().filter(|&b| b == b'\n').count() + 1;
    let column = before
        .rsplit_once('\n')
        .map(|(_, tail)| tail.chars().count())
        .unwrap_or_else(|| before.chars().count())
        + 1;
    (line, column)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_offsets() {
        let e = ProcessError::Parse {
            offset: 12,
            message: "expected `;`".into(),
        };
        assert_eq!(e.to_string(), "parse error at byte 12: expected `;`");
    }

    #[test]
    fn is_std_error() {
        fn takes_err<E: std::error::Error>(_: &E) {}
        takes_err(&ProcessError::Structure("x".into()));
    }

    #[test]
    fn offset_to_line_col_basics() {
        let src = "BEGIN\n  POD;\n  P3DR;\nEND";
        assert_eq!(offset_to_line_col(src, 0), (1, 1));
        assert_eq!(offset_to_line_col(src, 5), (1, 6)); // end of BEGIN
        assert_eq!(offset_to_line_col(src, 6), (2, 1)); // first char of line 2
        assert_eq!(offset_to_line_col(src, 8), (2, 3)); // `P` of POD
        assert_eq!(offset_to_line_col(src, 100), (4, 4)); // clamped to end
        assert_eq!(offset_to_line_col("", 0), (1, 1));
    }

    #[test]
    fn with_position_decorates_parse_errors() {
        let src = "BEGIN\n  POD\nEND"; // missing semicolon: error at END
        let err = crate::parser::parse_process(src).unwrap_err();
        let rendered = err.with_position(src);
        assert!(rendered.contains("line 3, column 1"), "{rendered}");
        // Non-positioned errors render unchanged.
        let plain = ProcessError::Structure("x".into());
        assert_eq!(plain.with_position(src), plain.to_string());
        assert_eq!(plain.offset(), None);
    }
}
