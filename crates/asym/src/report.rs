//! Serializable cost summaries for the benchmark harness.
//!
//! The harness emits machine-readable JSON without an external
//! serialization dependency: [`json::Obj`] is the tiny builder the bench
//! binaries use for their own envelopes.

use crate::ledger::Ledger;

/// A labeled snapshot of everything a [`Ledger`] measured. The bench harness
/// serializes these (JSON) and renders the paper's tables from them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostReport {
    /// Free-form label ("connectivity-oracle/build", ...).
    pub label: String,
    /// Write-cost multiplier the run used.
    pub omega: u64,
    /// Asymmetric-memory reads.
    pub asym_reads: u64,
    /// Asymmetric-memory writes.
    pub asym_writes: u64,
    /// Unit-cost (symmetric/compute) operations.
    pub sym_ops: u64,
    /// `asym_reads + sym_ops` — the paper's "operations".
    pub operations: u64,
    /// `operations + omega * asym_writes` — sequential time / parallel work.
    pub work: u64,
    /// Critical-path cost (Asymmetric NP depth).
    pub depth: u64,
    /// Symmetric-memory high-water mark in words.
    pub sym_peak_words: u64,
}

impl CostReport {
    /// Snapshot `led` under `label`.
    pub fn from_ledger(label: String, led: &Ledger) -> Self {
        let c = led.costs();
        CostReport {
            label,
            omega: led.omega(),
            asym_reads: c.asym_reads,
            asym_writes: c.asym_writes,
            sym_ops: c.sym_ops,
            operations: c.operations(),
            work: c.work(led.omega()),
            depth: led.depth(),
            sym_peak_words: led.sym_peak(),
        }
    }

    /// One-line human-readable rendering used by the harness binaries.
    pub fn render(&self) -> String {
        format!(
            "{:<40} ω={:<4} reads={:<12} writes={:<12} ops={:<12} work={:<14} depth={:<12} sym={}w",
            self.label,
            self.omega,
            self.asym_reads,
            self.asym_writes,
            self.sym_ops,
            self.work,
            self.depth,
            self.sym_peak_words
        )
    }
}

/// Dependency-free JSON emission for the flat shapes the harness writes.
pub mod json {
    /// Escape a string for inclusion in a JSON document.
    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    /// Incremental JSON object builder.
    #[derive(Debug, Default)]
    pub struct Obj {
        body: String,
    }

    impl Obj {
        /// An empty object.
        pub fn new() -> Self {
            Obj::default()
        }

        fn key(&mut self, k: &str) {
            if !self.body.is_empty() {
                self.body.push(',');
            }
            self.body.push('"');
            self.body.push_str(&escape(k));
            self.body.push_str("\":");
        }

        /// Add a string field.
        pub fn str(mut self, k: &str, v: &str) -> Self {
            self.key(k);
            self.body.push('"');
            self.body.push_str(&escape(v));
            self.body.push('"');
            self
        }

        /// Add an unsigned integer field.
        pub fn num(mut self, k: &str, v: u64) -> Self {
            self.key(k);
            self.body.push_str(&v.to_string());
            self
        }

        /// Add a raw pre-rendered JSON value (object, array, ...).
        pub fn raw(mut self, k: &str, v: &str) -> Self {
            self.key(k);
            self.body.push_str(v);
            self
        }

        /// Close the object.
        pub fn finish(self) -> String {
            format!("{{{}}}", self.body)
        }
    }

    /// Render a sequence of pre-rendered JSON values as an array.
    pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
        let body: Vec<String> = items.into_iter().collect();
        format!("[{}]", body.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_reflects_ledger() {
        let mut led = Ledger::new(16);
        led.read(10);
        led.write(2);
        led.op(3);
        led.sym_alloc(40);
        let r = led.report("phase");
        assert_eq!(r.label, "phase");
        assert_eq!(r.asym_reads, 10);
        assert_eq!(r.asym_writes, 2);
        assert_eq!(r.operations, 13);
        assert_eq!(r.work, 13 + 32);
        assert_eq!(r.depth, 10 + 32 + 3);
        assert_eq!(r.sym_peak_words, 40);
    }

    #[test]
    fn json_builder_composes_nested_values() {
        let inner = json::Obj::new().num("a", 1).finish();
        let outer = json::Obj::new()
            .str("name", "t")
            .raw("inner", &inner)
            .raw("list", &json::array(vec!["1".into(), "2".into()]))
            .finish();
        assert_eq!(outer, "{\"name\":\"t\",\"inner\":{\"a\":1},\"list\":[1,2]}");
        let escaped = json::Obj::new().str("x\"y\\z", "a\nb").finish();
        assert_eq!(escaped, r#"{"x\"y\\z":"a\nb"}"#);
    }

    #[test]
    fn render_contains_key_fields() {
        let mut led = Ledger::new(8);
        led.read(1);
        led.write(2);
        led.op(3);
        let s = led.report("lbl").render();
        assert!(s.contains("lbl"));
        assert!(s.contains("writes=2"));
    }
}
