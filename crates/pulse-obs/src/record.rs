//! A public flat-record codec for checkpoint documents.
//!
//! Snapshots serialize as multi-line documents of typed flat records — one
//! JSON object per line with a `"type"` discriminator, the wire shape
//! [`crate::ObsEvent`]'s JSONL is written in too, but open-schema: the
//! engines define their own record kinds (schedule rows, queue contents,
//! RNG cursors) without this crate knowing them. [`RecordBuilder`] writes a record, [`Record`] parses
//! one back with typed field access; numeric series pack as comma-joined
//! shortest-round-trip values inside a single string field, so a
//! 10,000-entry event queue is one line, and every `f64` survives the trip
//! bit-exactly ([`push_f64`] semantics: non-finite values become `null` and
//! parse back as NaN).

use crate::json::{parse_object, push_f64, push_json_str, Fields, ParseError};
use std::fmt::Write as _;

/// Builds one flat record line (`{"type":"...",...}`, no trailing newline).
#[derive(Debug)]
pub struct RecordBuilder {
    out: String,
}

impl RecordBuilder {
    /// Start a record with the given `"type"` discriminator.
    pub fn new(kind: &str) -> Self {
        let mut out = String::with_capacity(64);
        out.push_str("{\"type\":");
        push_json_str(&mut out, kind);
        Self { out }
    }

    /// Append a string field (escaped).
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        push_json_str(&mut self.out, value);
        self
    }

    /// Append an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    /// Append a `usize` field.
    pub fn usize(mut self, key: &str, value: usize) -> Self {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    /// Append a float field in shortest round-trip form (`null` when
    /// non-finite).
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        push_f64(&mut self.out, value);
        self
    }

    /// Append a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    /// Append a packed list of unsigned integers: comma-joined decimal
    /// values inside one string field (empty list → empty string).
    pub fn u64_list(mut self, key: &str, values: &[u64]) -> Self {
        self.key(key);
        let mut packed = String::with_capacity(values.len() * 4);
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                packed.push(',');
            }
            let _ = write!(packed, "{v}");
        }
        push_json_str(&mut self.out, &packed);
        self
    }

    /// Append a packed list of floats: comma-joined shortest-round-trip
    /// values inside one string field (non-finite → `null`, parsed back as
    /// NaN; empty list → empty string).
    pub fn f64_list(mut self, key: &str, values: &[f64]) -> Self {
        self.key(key);
        let mut packed = String::with_capacity(values.len() * 8);
        for (i, &v) in values.iter().enumerate() {
            if i > 0 {
                packed.push(',');
            }
            push_f64(&mut packed, v);
        }
        push_json_str(&mut self.out, &packed);
        self
    }

    /// Finish the record and return the line.
    pub fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }

    fn key(&mut self, key: &str) {
        self.out.push(',');
        push_json_str(&mut self.out, key);
        self.out.push(':');
    }
}

/// One parsed flat record with typed field access.
#[derive(Debug)]
pub struct Record {
    kind: String,
    fields: Fields,
}

impl Record {
    /// Parse one record line. Fails when the line is not a flat JSON object
    /// or lacks a string `"type"` field.
    pub fn parse(line: &str) -> Result<Self, ParseError> {
        let fields = Fields(parse_object(line)?);
        let kind = fields.str("type")?.to_string();
        Ok(Self { kind, fields })
    }

    /// The record's `"type"` discriminator.
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// A string field.
    pub fn str(&self, key: &str) -> Result<&str, ParseError> {
        self.fields.str(key)
    }

    /// An unsigned integer field.
    pub fn u64(&self, key: &str) -> Result<u64, ParseError> {
        self.fields.u64(key)
    }

    /// A `usize` field.
    pub fn usize(&self, key: &str) -> Result<usize, ParseError> {
        self.fields.usize(key)
    }

    /// A float field (`null` parses as NaN).
    pub fn f64(&self, key: &str) -> Result<f64, ParseError> {
        self.fields.f64(key)
    }

    /// A boolean field.
    pub fn bool(&self, key: &str) -> Result<bool, ParseError> {
        self.fields.bool(key)
    }

    /// A packed unsigned-integer list written by
    /// [`RecordBuilder::u64_list`].
    pub fn u64_list(&self, key: &str) -> Result<Vec<u64>, ParseError> {
        let packed = self.fields.str(key)?;
        if packed.is_empty() {
            return Ok(Vec::new());
        }
        packed
            .split(',')
            .map(|tok| {
                tok.parse()
                    .map_err(|_| ParseError::new(format!("field {key:?}: {tok:?} is not a u64")))
            })
            .collect()
    }

    /// A packed float list written by [`RecordBuilder::f64_list`].
    pub fn f64_list(&self, key: &str) -> Result<Vec<f64>, ParseError> {
        let packed = self.fields.str(key)?;
        if packed.is_empty() {
            return Ok(Vec::new());
        }
        packed
            .split(',')
            .map(|tok| {
                if tok == "null" {
                    return Ok(f64::NAN);
                }
                tok.parse()
                    .map_err(|_| ParseError::new(format!("field {key:?}: {tok:?} is not an f64")))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_fields_round_trip() {
        let line = RecordBuilder::new("probe")
            .str("name", "a \"b\"\nc")
            .u64("count", 42)
            .usize("idx", 7)
            .f64("x", 0.1 + 0.2)
            .bool("ok", true)
            .finish();
        let rec = Record::parse(&line).unwrap();
        assert_eq!(rec.kind(), "probe");
        assert_eq!(rec.str("name").unwrap(), "a \"b\"\nc");
        assert_eq!(rec.u64("count").unwrap(), 42);
        assert_eq!(rec.usize("idx").unwrap(), 7);
        assert_eq!(rec.f64("x").unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        assert!(rec.bool("ok").unwrap());
    }

    #[test]
    fn packed_lists_round_trip_bit_exactly() {
        let us = vec![0u64, 1, u64::MAX, 42];
        let fs = vec![0.0, -1.5, 0.1 + 0.2, f64::MIN_POSITIVE, f64::NAN];
        let line = RecordBuilder::new("lists")
            .u64_list("us", &us)
            .f64_list("fs", &fs)
            .finish();
        let rec = Record::parse(&line).unwrap();
        assert_eq!(rec.u64_list("us").unwrap(), us);
        let back = rec.f64_list("fs").unwrap();
        assert_eq!(back.len(), fs.len());
        for (b, f) in back.iter().zip(fs.iter()) {
            assert_eq!(b.to_bits(), f.to_bits());
        }
    }

    #[test]
    fn empty_lists_round_trip() {
        let line = RecordBuilder::new("empty")
            .u64_list("us", &[])
            .f64_list("fs", &[])
            .finish();
        let rec = Record::parse(&line).unwrap();
        assert!(rec.u64_list("us").unwrap().is_empty());
        assert!(rec.f64_list("fs").unwrap().is_empty());
    }

    #[test]
    fn malformed_records_are_typed_errors() {
        assert!(Record::parse("not json").is_err());
        assert!(Record::parse("{\"minute\":3}").is_err(), "missing type");
        let rec = Record::parse("{\"type\":\"t\",\"us\":\"1,x\"}").unwrap();
        assert!(rec.u64_list("us").is_err());
        let rec = Record::parse("{\"type\":\"t\",\"fs\":\"1.5,?\"}").unwrap();
        assert!(rec.f64_list("fs").is_err());
        assert!(rec.u64("missing").is_err());
    }

    #[test]
    fn records_nest_inside_event_strings() {
        // A snapshot document line survives embedding in a Checkpoint event.
        let line = RecordBuilder::new("rng")
            .u64_list("s", &[1, 2, 3, 4])
            .finish();
        let ev = crate::ObsEvent::Checkpoint {
            seq: 0,
            snapshot: line.clone(),
        };
        match crate::ObsEvent::from_json(&ev.to_json()).unwrap() {
            crate::ObsEvent::Checkpoint { snapshot, .. } => {
                let rec = Record::parse(&snapshot).unwrap();
                assert_eq!(rec.u64_list("s").unwrap(), vec![1, 2, 3, 4]);
            }
            other => panic!("wrong variant {other:?}"),
        }
    }
}
