//! Graph serialization: a plain text edge-list format and (behind the
//! `io-json` feature) a JSON format.
//!
//! Text format, line-oriented:
//! ```text
//! n <node-id> <label>
//! e <src> <dst>
//! ```
//! Lines starting with `#` are comments. Node lines must precede edge lines
//! that reference them; node ids must be dense `0..n` in order.

use crate::builder::GraphBuilder;
use crate::graph::Graph;
use std::fmt::Write as _;

/// Errors raised while parsing the text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A line could not be tokenized as `n`/`e`/comment.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// The offending raw line.
        content: String,
    },
    /// Node ids were not dense and in order.
    NonDenseNodeId {
        /// 1-based line number.
        line: usize,
        /// The id that should have appeared.
        expected: u32,
        /// The token found instead.
        got: String,
    },
    /// An edge referenced a node that was never declared.
    UnknownNode {
        /// 1-based line number.
        line: usize,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadLine { line, content } => {
                write!(f, "line {line}: unparseable: {content:?}")
            }
            ParseError::NonDenseNodeId {
                line,
                expected,
                got,
            } => {
                write!(f, "line {line}: expected node id {expected}, got {got:?}")
            }
            ParseError::UnknownNode { line } => {
                write!(f, "line {line}: edge references unknown node")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Writes `g` in the text edge-list format.
pub fn to_text(g: &Graph) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# fsim graph: {} nodes, {} edges",
        g.node_count(),
        g.edge_count()
    );
    for u in g.nodes() {
        let _ = writeln!(s, "n {} {}", u, g.label_str(u));
    }
    for (u, v) in g.edges() {
        let _ = writeln!(s, "e {u} {v}");
    }
    s
}

/// Parses the text edge-list format.
pub fn from_text(text: &str) -> Result<Graph, ParseError> {
    let mut b = GraphBuilder::new();
    let mut next_node: u32 = 0;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, ' ');
        match parts.next() {
            Some("n") => {
                let id = parts.next().unwrap_or("");
                let label = parts.next().unwrap_or("");
                if id.parse::<u32>() != Ok(next_node) {
                    return Err(ParseError::NonDenseNodeId {
                        line: line_no,
                        expected: next_node,
                        got: id.to_string(),
                    });
                }
                b.add_node(label);
                next_node += 1;
            }
            Some("e") => {
                let u: u32 =
                    parts
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or(ParseError::BadLine {
                            line: line_no,
                            content: raw.to_string(),
                        })?;
                let v: u32 = parts
                    .next()
                    .and_then(|t| t.split_whitespace().next())
                    .and_then(|t| t.parse().ok())
                    .ok_or(ParseError::BadLine {
                        line: line_no,
                        content: raw.to_string(),
                    })?;
                if u >= next_node || v >= next_node {
                    return Err(ParseError::UnknownNode { line: line_no });
                }
                b.add_edge(u, v);
            }
            _ => {
                return Err(ParseError::BadLine {
                    line: line_no,
                    content: raw.to_string(),
                })
            }
        }
    }
    Ok(b.build())
}

mod json {
    use super::*;

    /// Serializable form of a graph:
    /// `{"labels": ["a", ...], "edges": [[0, 1], ...]}`.
    ///
    /// Serialization is hand-rolled (the build environment vendors no JSON
    /// dependency); the grammar is restricted to exactly this shape.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct GraphJson {
        /// Per-node label strings.
        pub labels: Vec<String>,
        /// Directed edges.
        pub edges: Vec<(u32, u32)>,
    }

    impl From<&Graph> for GraphJson {
        fn from(g: &Graph) -> Self {
            Self {
                labels: g.nodes().map(|u| g.label_str(u).to_string()).collect(),
                edges: g.edges().collect(),
            }
        }
    }

    /// Errors raised while parsing the JSON graph format.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct JsonError {
        /// Byte offset of the failure.
        pub at: usize,
        /// What went wrong.
        pub message: String,
    }

    impl std::fmt::Display for JsonError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "json error at byte {}: {}", self.at, self.message)
        }
    }

    impl std::error::Error for JsonError {}

    /// Escapes a string per the JSON string grammar.
    pub fn escape_json(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if u32::from(c) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", u32::from(c)));
                }
                c => out.push(c),
            }
        }
        out
    }

    /// Serializes `g` as JSON.
    pub fn to_json(g: &Graph) -> String {
        let mut s = String::from("{\"labels\":[");
        for (i, u) in g.nodes().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            s.push_str(&escape_json(&g.label_str(u)));
            s.push('"');
        }
        s.push_str("],\"edges\":[");
        for (i, (u, v)) in g.edges().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("[{u},{v}]"));
        }
        s.push_str("]}");
        s
    }

    /// A minimal recursive-descent parser for the [`to_json`] grammar.
    struct Parser<'a> {
        text: &'a str,
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Parser<'a> {
        fn err<T>(&self, message: impl Into<String>) -> Result<T, JsonError> {
            Err(JsonError {
                at: self.pos,
                message: message.into(),
            })
        }

        fn skip_ws(&mut self) {
            while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
            self.skip_ws();
            if self.bytes.get(self.pos) == Some(&byte) {
                self.pos += 1;
                Ok(())
            } else {
                self.err(format!("expected {:?}", byte as char))
            }
        }

        fn peek(&mut self) -> Option<u8> {
            self.skip_ws();
            self.bytes.get(self.pos).copied()
        }

        fn string(&mut self) -> Result<String, JsonError> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.bytes.get(self.pos) {
                    None => return self.err("unterminated string"),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.bytes.get(self.pos) {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'u') => {
                                let hex = self
                                    .bytes
                                    .get(self.pos + 1..self.pos + 5)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .and_then(|h| u32::from_str_radix(h, 16).ok());
                                match hex.and_then(char::from_u32) {
                                    Some(c) => {
                                        out.push(c);
                                        self.pos += 4;
                                    }
                                    None => return self.err("bad \\u escape"),
                                }
                            }
                            _ => return self.err("bad escape"),
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar. Only its own bytes are
                        // decoded: re-validating the whole rest of the
                        // input per scalar made long strings quadratic.
                        let c = self.text.get(self.pos..).and_then(|s| s.chars().next());
                        let Some(c) = c else {
                            return self.err("bad utf8");
                        };
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }

        fn u32(&mut self) -> Result<u32, JsonError> {
            self.skip_ws();
            let start = self.pos;
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if start == self.pos {
                return self.err("expected number");
            }
            std::str::from_utf8(&self.bytes[start..self.pos])
                .expect("digits are ascii")
                .parse()
                .map_err(|_| JsonError {
                    at: start,
                    message: "number out of range".into(),
                })
        }

        /// `[item, item, ...]` with `item` parsed by `f`.
        fn array<T>(
            &mut self,
            f: impl Fn(&mut Self) -> Result<T, JsonError>,
        ) -> Result<Vec<T>, JsonError> {
            self.expect(b'[')?;
            let mut out = Vec::new();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(out);
            }
            loop {
                out.push(f(self)?);
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    _ => return self.err("expected ',' or ']'"),
                }
            }
        }
    }

    /// Parses a graph from the JSON produced by [`to_json`].
    pub fn from_json(s: &str) -> Result<Graph, JsonError> {
        let mut p = Parser {
            text: s,
            bytes: s.as_bytes(),
            pos: 0,
        };
        p.expect(b'{')?;
        let mut labels: Option<Vec<String>> = None;
        let mut edges: Option<Vec<(u32, u32)>> = None;
        loop {
            let key = p.string()?;
            p.expect(b':')?;
            match key.as_str() {
                "labels" => labels = Some(p.array(Parser::string)?),
                "edges" => {
                    edges = Some(p.array(|p| {
                        p.expect(b'[')?;
                        let u = p.u32()?;
                        p.expect(b',')?;
                        let v = p.u32()?;
                        p.expect(b']')?;
                        Ok((u, v))
                    })?)
                }
                other => return p.err(format!("unknown key {other:?}")),
            }
            match p.peek() {
                Some(b',') => p.pos += 1,
                Some(b'}') => {
                    p.pos += 1;
                    break;
                }
                _ => return p.err("expected ',' or '}'"),
            }
        }
        if p.peek().is_some() {
            return p.err("trailing characters after the root object");
        }
        let (Some(labels), Some(edges)) = (labels, edges) else {
            return p.err("missing \"labels\" or \"edges\"");
        };
        let Ok(n) = u32::try_from(labels.len()) else {
            return p.err("node count exceeds u32 id space");
        };
        let mut b = GraphBuilder::new();
        for l in &labels {
            b.add_node(l);
        }
        for (u, v) in edges {
            if u >= n || v >= n {
                return Err(JsonError {
                    at: 0,
                    message: format!("edge ({u},{v}) out of range"),
                });
            }
            b.add_edge(u, v);
        }
        Ok(b.build())
    }
}

pub use json::{escape_json, from_json, to_json, GraphJson, JsonError};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_parts;

    fn sample() -> Graph {
        graph_from_parts(&["alpha", "beta", "alpha"], &[(0, 1), (1, 2)])
    }

    #[test]
    fn text_roundtrip() {
        let g = sample();
        let g2 = from_text(&to_text(&g)).unwrap();
        assert_eq!(g2.node_count(), g.node_count());
        assert_eq!(
            g2.edges().collect::<Vec<_>>(),
            g.edges().collect::<Vec<_>>()
        );
        for u in g.nodes() {
            assert_eq!(g2.label_str(u), g.label_str(u));
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let g = from_text("# hello\n\nn 0 a\nn 1 b\n\ne 0 1\n").unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn non_dense_ids_error() {
        let err = from_text("n 1 a\n").unwrap_err();
        assert!(matches!(err, ParseError::NonDenseNodeId { .. }));
    }

    #[test]
    fn edge_to_unknown_node_errors() {
        let err = from_text("n 0 a\ne 0 3\n").unwrap_err();
        assert!(matches!(err, ParseError::UnknownNode { .. }));
    }

    #[test]
    fn garbage_line_errors() {
        let err = from_text("x y z\n").unwrap_err();
        assert!(matches!(err, ParseError::BadLine { .. }));
    }

    #[test]
    fn json_roundtrip() {
        let g = sample();
        let g2 = from_json(&to_json(&g)).unwrap();
        assert_eq!(g2.node_count(), g.node_count());
        assert_eq!(
            g2.edges().collect::<Vec<_>>(),
            g.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn json_roundtrips_tricky_labels() {
        let g = graph_from_parts(&["a\"b", "x\\y", "tab\there", "uni→"], &[(0, 1)]);
        let g2 = from_json(&to_json(&g)).unwrap();
        for u in g.nodes() {
            assert_eq!(g2.label_str(u), g.label_str(u));
        }
    }

    #[test]
    fn json_rejects_out_of_range_edges() {
        assert!(from_json("{\"labels\":[\"a\"],\"edges\":[[0,4]]}").is_err());
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(from_json("").is_err());
        assert!(from_json("{\"labels\":[}").is_err());
        assert!(from_json("{\"nope\":[]}").is_err());
    }

    #[test]
    fn json_rejects_trailing_characters() {
        assert!(from_json("{\"labels\":[\"a\"],\"edges\":[]}garbage").is_err());
        assert!(from_json("{\"labels\":[\"a\"],\"edges\":[]} {}").is_err());
        // Trailing whitespace is fine.
        assert!(from_json("{\"labels\":[\"a\"],\"edges\":[]}\n  ").is_ok());
    }
}
