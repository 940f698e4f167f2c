//! Metric tables, the hand-written JSON the benchmark emits and reads back,
//! and `ftbench compare`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// How far a metric's median may worsen before `compare` calls it a
/// regression.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Bound {
    /// Share of the base value.
    Rel(f64),
    /// Share of the base value, or this much in the metric's unit,
    /// whichever allows more (small bases are mostly noise).
    RelOrAbs(f64, f64),
    /// This much in the metric's unit.
    Abs(f64),
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
}

/// The eight end-to-end metrics, reported for every workload.
pub const END_TO_END: [MetricDef; 8] = [
    MetricDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::RelOrAbs(0.25, 0.2),
    },
    MetricDef {
        name: "run_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Rel(0.10),
    },
    MetricDef {
        name: "samples_per_s",
        unit: "samples/s",
        better: Better::Higher,
        bound: Bound::Rel(0.10),
    },
    MetricDef {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Rel(0.10),
    },
    MetricDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        // Twice the timing bound: `fedtiny_sparse` lands on ≈385 or ≈435 MB
        // from one process to the next on unchanged code.
        bound: Bound::Rel(0.20),
    },
    MetricDef {
        name: "wire_mb",
        unit: "MB",
        better: Better::Lower,
        bound: Bound::Rel(0.001),
    },
    MetricDef {
        name: "accuracy",
        unit: "fraction",
        better: Better::Higher,
        bound: Bound::Abs(0.02),
    },
    MetricDef {
        name: "fail_share",
        unit: "fraction",
        better: Better::Lower,
        bound: Bound::Abs(0.0),
    },
];

/// End-to-end metrics that may legitimately read 0 or differ by seed more
/// than any relative bound (`accuracy` sits mid-learning-curve at these
/// round counts): `BENCHMARK.json` bounds the other six and carries these
/// two in the trace pass and in `failed`/`attempted`.
pub const UNBOUNDED_IN_CONTRACT: [&str; 2] = ["accuracy", "fail_share"];

/// Per-layer metrics of the traced repeat and layer pass: name, unit,
/// better direction. Reported for every workload; a layer a workload
/// bypasses reads 0.
pub const PER_LAYER: [(&str, &str, Better); 51] = [
    ("data.generate_ms", "ms", Better::Lower),
    ("fl.env.new_ms", "ms", Better::Lower),
    ("nn.build_ms", "ms", Better::Lower),
    ("fl.transport.accept_ms", "ms", Better::Lower),
    ("fedtiny.selection.pool_ms", "ms", Better::Lower),
    ("fedtiny.selection.select_ms", "ms", Better::Lower),
    ("fedtiny.selection.candidate_ms", "ms", Better::Lower),
    ("fedtiny.selection.share", "fraction", Better::Lower),
    ("fedtiny.progressive.adjust_ms_p50", "ms", Better::Lower),
    ("fedtiny.progressive.adjust_calls", "count", Better::Lower),
    ("fedtiny.progressive.grown_total", "count", Better::Higher),
    (
        "fedtiny.progressive.topk_buffer_max",
        "count",
        Better::Lower,
    ),
    ("fedtiny.progressive.share", "fraction", Better::Lower),
    ("fl.server.round_ms_mean", "ms", Better::Lower),
    ("fl.server.round_ms_p50", "ms", Better::Lower),
    ("fl.server.round_ms_tail", "ms", Better::Lower),
    ("fl.server.round_tail_pct", "%", Better::Higher),
    ("fl.server.round_samples", "count", Better::Higher),
    ("fl.server.alloc_mb_per_round", "MB", Better::Lower),
    ("fl.server.unattributed_ms", "ms", Better::Lower),
    ("fl.server.unattributed_share", "fraction", Better::Lower),
    ("fl.server.accuracy", "fraction", Better::Higher),
    ("fl.server.fail_share", "fraction", Better::Lower),
    ("fl.train.device_ms_p50", "ms", Better::Lower),
    ("fl.train.device_ms_max", "ms", Better::Lower),
    ("fl.train.share", "fraction", Better::Lower),
    ("fl.train.par_speedup", "x", Better::Higher),
    ("nn.forward_ms", "ms", Better::Lower),
    ("nn.backward_ms", "ms", Better::Lower),
    ("nn.step_ms", "ms", Better::Lower),
    ("nn.eval_ms", "ms", Better::Lower),
    ("nn.clone_ms", "ms", Better::Lower),
    ("nn.realized_gflops", "GFLOP/s", Better::Higher),
    ("tensor.matmul_gflops", "GFLOP/s", Better::Higher),
    ("tensor.spmm_gflops", "GFLOP/s", Better::Higher),
    ("tensor.sddmm_gflops", "GFLOP/s", Better::Higher),
    ("sparse.encode_us", "us", Better::Lower),
    ("sparse.to_bytes_us", "us", Better::Lower),
    ("sparse.parse_us", "us", Better::Lower),
    ("sparse.payload_bytes", "bytes", Better::Lower),
    ("sparse.magnitude_mask_ms", "ms", Better::Lower),
    ("fl.aggregate.into_us", "us", Better::Lower),
    ("fl.aggregate.mcoords_per_s", "Mcoord/s", Better::Higher),
    ("fl.transport.tcp_overhead_ms", "ms", Better::Lower),
    ("fl.transport.wire_bytes_down", "bytes", Better::Lower),
    ("fl.transport.wire_bytes_up", "bytes", Better::Lower),
    ("runtime.scatter_us", "us", Better::Lower),
    ("trace.overhead_pct", "%", Better::Lower),
    ("trace.spans", "count", Better::Lower),
    ("trace.dropped_spans", "count", Better::Lower),
    ("trace.run_s", "s", Better::Lower),
];

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// A JSON number with all its digits; non-finite values become `null`.
pub fn num(v: f64) -> String {
    if v == 0.0 {
        "0".into() // an empty f64 sum is -0.0
    } else if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` in the given order.
pub fn metrics_object(metrics: &[(&str, f64, &str)]) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " },
            num(*value)
        );
    }
    out.push('}');
    out
}

pub fn num_array(values: &[f64]) -> String {
    let body: Vec<String> = values.iter().map(|v| num(*v)).collect();
    format!("[{}]", body.join(", "))
}

// ---------------------------------------------------------------------------
// Reading (the subset of JSON this benchmark writes)
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }

    pub fn as_f64_vec(&self) -> Option<Vec<f64>> {
        self.as_arr()?.iter().map(Json::as_f64).collect()
    }
}

/// Nesting the parser accepts; result files are four levels deep.
const MAX_DEPTH: usize = 32;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn fail<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("json: {what} at byte {}", self.pos))
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return self.fail("nested too deep");
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => self.fail("unexpected end"),
            Some(b'{') => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Json::Obj(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return self.fail("expected ':'");
                    }
                    map.insert(key, self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Json::Obj(map));
                    }
                    if !self.eat(",") {
                        return self.fail("expected ',' or '}'");
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(",") {
                        return self.fail("expected ',' or ']'");
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Json::Num)
                    .map_or_else(|| self.fail("bad number"), Ok)
            }
        }
    }

    /// Strings here are names, units and one-line reasons: escapes other
    /// than `\"` and `\\` are refused rather than half-supported.
    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return self.fail("expected string");
        }
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return self.fail("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).or_else(|_| self.fail("string is not UTF-8"));
                }
                Some(b'\\') => match self.bytes.get(self.pos + 1) {
                    Some(&c @ (b'"' | b'\\')) => {
                        out.push(c);
                        self.pos += 2;
                    }
                    _ => return self.fail("unsupported escape"),
                },
                Some(&c) => {
                    out.push(c);
                    self.pos += 1;
                }
            }
        }
    }
}

pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.fail("trailing characters");
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// Compare
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `new` is than `base`, in the metric's unit (negative =
/// better).
fn worse_by(better: Better, base: f64, new: f64) -> f64 {
    match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    }
}

/// The allowed worsening in the metric's unit at this base value.
pub fn allowance(bound: Bound, base: f64) -> f64 {
    match bound {
        Bound::Rel(share) => share * base.abs(),
        Bound::RelOrAbs(share, abs) => (share * base.abs()).max(abs),
        Bound::Abs(abs) => abs,
    }
}

/// One metric of one workload on both sides. `base`/`new` are the reported
/// medians, `*_runs` the repeats behind them (empty when the metric is a
/// single reading).
///
/// The spread is the wider of the two sides' min-to-max range. Within the
/// allowance it decides nothing: the medians are compared. Wider than the
/// allowance, the medians alone cannot be told apart from noise: the
/// verdict is `ok` only if every new run is at least as good as every base
/// run, `regressed` only if every new run is worse than every base run and
/// the medians differ by more than the allowance, and `unresolved`
/// otherwise.
pub fn verdict(
    def: &MetricDef,
    base: f64,
    new: f64,
    base_runs: &[f64],
    new_runs: &[f64],
) -> Verdict {
    let allowed = allowance(def.bound, base);
    let range = |runs: &[f64]| {
        runs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            - runs.iter().copied().fold(f64::INFINITY, f64::min)
    };
    let spread = if base_runs.is_empty() || new_runs.is_empty() {
        0.0
    } else {
        range(base_runs).max(range(new_runs))
    };
    let over = worse_by(def.better, base, new) > allowed;
    if spread <= allowed {
        return if over {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
    }
    let all_pairs = |pred: &dyn Fn(f64) -> bool| {
        base_runs
            .iter()
            .all(|&b| new_runs.iter().all(|&n| pred(worse_by(def.better, b, n))))
    };
    if all_pairs(&|w| w <= 0.0) {
        Verdict::Ok
    } else if over && all_pairs(&|w| w > 0.0) {
        Verdict::Regressed
    } else {
        Verdict::Unresolved
    }
}

pub struct CompareRow {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub base: Option<f64>,
    pub new: Option<f64>,
    pub verdict: Verdict,
}

fn metric_value(workload: &Json, metric: &str) -> Option<f64> {
    workload
        .get("end_to_end")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

fn metric_runs(workload: &Json, metric: &str) -> Vec<f64> {
    workload
        .get("runs")
        .and_then(|r| r.get(metric))
        .and_then(Json::as_f64_vec)
        .unwrap_or_default()
}

/// Compares two `result.json` documents: every workload × end-to-end metric
/// of the base, plus the exact-equality checks (`wire_mb`, `accuracy`,
/// output hashes) when both sides ran the same seed.
pub fn compare(base: &Json, new: &Json) -> Result<(Vec<CompareRow>, Vec<String>), String> {
    for (side, doc) in [("A", base), ("B", new)] {
        if doc.get("quick").and_then(Json::as_bool) != Some(false) {
            return Err(format!(
                "{side} is a --quick result (or not a result file); quick runs are never compared"
            ));
        }
    }
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .and_then(Json::as_obj)
            .cloned()
            .ok_or("result file has no workloads")
    };
    let (base_w, new_w) = (workloads(base)?, workloads(new)?);
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    let same_seed = base.get("seed") == new.get("seed") && base.get("seed").is_some();
    for (name, bw) in &base_w {
        let Some(nw) = new_w.get(name) else {
            notes.push(format!("{name}: missing from B"));
            continue;
        };
        for def in &END_TO_END {
            let (b, n) = (metric_value(bw, def.name), metric_value(nw, def.name));
            let verdict = match (b, n) {
                (Some(b), Some(n)) => verdict(
                    def,
                    b,
                    n,
                    &metric_runs(bw, def.name),
                    &metric_runs(nw, def.name),
                ),
                // Absent on both sides (no /proc): nothing to compare.
                (None, None) => Verdict::Ok,
                _ => Verdict::Unresolved,
            };
            rows.push(CompareRow {
                workload: name.clone(),
                metric: def.name,
                unit: def.unit,
                base: b,
                new: n,
                verdict,
            });
        }
        if same_seed {
            for exact in ["fingerprint", "state_hash"] {
                if bw.get(exact) != nw.get(exact) {
                    notes.push(format!("{name}: {exact} differs at the same seed"));
                }
            }
            for exact in ["wire_mb", "accuracy"] {
                if metric_value(bw, exact).map(f64::to_bits)
                    != metric_value(nw, exact).map(f64::to_bits)
                {
                    notes.push(format!("{name}: {exact} differs at the same seed"));
                }
            }
        }
    }
    Ok((rows, notes))
}

pub fn render_compare(rows: &[CompareRow], notes: &[String]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:<14} {:>14} {:>14} {:>22} {:>10}  verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    for r in rows {
        let def = END_TO_END
            .iter()
            .find(|d| d.name == r.metric)
            .expect("row metric is an end-to-end metric");
        let show = |v: Option<f64>| v.map_or("absent".to_string(), |v| format!("{v:.6}"));
        let ratio = match (r.base, r.new) {
            (Some(b), Some(n)) if b != 0.0 => format!("{:.4} of A={b:.4}", n / b),
            (Some(b), Some(n)) => format!("{:+.4} on A=0", n - b),
            _ => "-".into(),
        };
        let bound = match def.bound {
            Bound::Rel(s) => format!("{:.1}%", s * 100.0),
            Bound::RelOrAbs(s, a) => format!("{:.0}%|{a}{}", s * 100.0, def.unit),
            Bound::Abs(a) => format!("{a} abs"),
        };
        let _ = writeln!(
            out,
            "{:<16} {:<14} {:>14} {:>14} {:>22} {:>10}  {}",
            r.workload,
            format!("{} ({})", r.metric, r.unit),
            show(r.base),
            show(r.new),
            ratio,
            bound,
            r.verdict.name()
        );
    }
    for note in notes {
        let _ = writeln!(out, "note: {note}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> &'static MetricDef {
        END_TO_END.iter().find(|d| d.name == name).expect("metric")
    }

    #[test]
    fn allowances_follow_the_bound_kind() {
        assert_eq!(allowance(Bound::Rel(0.1), 5.0), 0.5);
        assert_eq!(allowance(Bound::RelOrAbs(0.25, 0.2), 0.04), 0.2); // tiny base: abs wins
        assert_eq!(allowance(Bound::RelOrAbs(0.25, 0.2), 4.0), 1.0);
        assert_eq!(allowance(Bound::Abs(0.02), 0.9), 0.02);
    }

    #[test]
    fn tight_runs_are_judged_on_medians() {
        let run_s = def("run_s");
        let a = [5.00, 5.02, 5.04];
        assert_eq!(
            verdict(run_s, 5.02, 5.40, &a, &[5.38, 5.40, 5.42]),
            Verdict::Ok
        ); // +7.6% < 10%
        assert_eq!(
            verdict(run_s, 5.02, 5.60, &a, &[5.58, 5.60, 5.62]),
            Verdict::Regressed
        ); // +11.6%
        assert_eq!(verdict(run_s, 5.02, 4.0, &a, &[3.9, 4.0, 4.1]), Verdict::Ok);
    }

    #[test]
    fn higher_is_better_flips_the_sign() {
        let sps = def("samples_per_s");
        assert_eq!(verdict(sps, 1000.0, 880.0, &[], &[]), Verdict::Regressed);
        assert_eq!(verdict(sps, 1000.0, 1200.0, &[], &[]), Verdict::Ok);
        let acc = def("accuracy");
        assert_eq!(verdict(acc, 0.94, 0.925, &[], &[]), Verdict::Ok);
        assert_eq!(verdict(acc, 0.94, 0.91, &[], &[]), Verdict::Regressed);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_agrees() {
        let run_s = def("run_s");
        // Ranges of 1.0 s against an allowance of 0.5 s.
        let a = [4.5, 5.0, 5.5];
        assert_eq!(
            verdict(run_s, 5.0, 5.2, &a, &[4.7, 5.2, 5.7]),
            Verdict::Unresolved
        );
        // Every new run beats every base run: resolved in B's favour.
        assert_eq!(verdict(run_s, 5.0, 4.0, &a, &[3.5, 4.0, 4.4]), Verdict::Ok);
        // Every new run loses to every base run, by more than the bound.
        assert_eq!(
            verdict(run_s, 5.0, 6.5, &a, &[6.0, 6.5, 7.0]),
            Verdict::Regressed
        );
    }

    #[test]
    fn fail_share_tolerates_no_increase() {
        let fail = def("fail_share");
        assert_eq!(verdict(fail, 0.0, 0.0, &[], &[]), Verdict::Ok);
        assert_eq!(verdict(fail, 0.0, 0.001, &[], &[]), Verdict::Regressed);
    }

    #[test]
    fn json_round_trips_what_the_benchmark_writes() {
        let text = format!(
            "{{\"quick\": false, \"claim\": null, \"m\": {}, \"runs\": {}, \"why\": \"a \\\"b\\\"\"}}",
            metrics_object(&[("run_s", 1.25, "s"), ("bad", f64::NAN, "s")]),
            num_array(&[1.0, 2.5e-3])
        );
        let doc = parse_json(&text).expect("parses");
        assert_eq!(doc.get("quick").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("claim"), Some(&Json::Null));
        let run_s = doc.get("m").and_then(|m| m.get("run_s")).expect("run_s");
        assert_eq!(run_s.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(run_s.get("unit"), Some(&Json::Str("s".into())));
        assert_eq!(
            doc.get("m")
                .and_then(|m| m.get("bad"))
                .and_then(|b| b.get("value")),
            Some(&Json::Null)
        );
        assert_eq!(
            doc.get("runs").and_then(Json::as_f64_vec),
            Some(vec![1.0, 0.0025])
        );
        assert_eq!(doc.get("why"), Some(&Json::Str("a \"b\"".into())));
        for bad in ["{", "{\"a\" 1}", "[1,]", "{\"a\": 1} x", "\"\\n\"", "--"] {
            assert!(parse_json(bad).is_err(), "{bad:?} must be refused");
        }
        assert!(parse_json(&"[".repeat(100)).is_err());
    }

    /// `BENCHMARK.json` is what the outside harness reads; the tables here
    /// are what the program reports. They must name the same things.
    #[test]
    fn benchmark_json_names_what_the_program_reports() {
        let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let text = [
            manifest.join("BENCHMARK.json"),
            manifest.join("../../BENCHMARK.json"),
        ]
        .iter()
        .find_map(|p| std::fs::read_to_string(p).ok())
        .expect("BENCHMARK.json at the repository root");
        let doc = parse_json(&text).expect("BENCHMARK.json parses");
        let rows = |key: &str, fields: [&str; 3]| -> Vec<[String; 3]> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("array")
                .iter()
                .map(|row| {
                    fields.map(|f| match row.get(f) {
                        Some(Json::Str(s)) => s.clone(),
                        _ => String::new(),
                    })
                })
                .collect()
        };
        let better = |b: Better| match b {
            Better::Lower => "lower".to_string(),
            Better::Higher => "higher".to_string(),
        };
        let workloads: Vec<[String; 3]> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| [w.name.to_string(), w.why.to_string(), String::new()])
            .collect();
        assert_eq!(rows("workloads", ["name", "why", "-"]), workloads);
        let end_to_end: Vec<[String; 3]> = END_TO_END
            .iter()
            .filter(|d| !UNBOUNDED_IN_CONTRACT.contains(&d.name))
            .map(|d| [d.name.to_string(), d.unit.to_string(), better(d.better)])
            .collect();
        assert_eq!(rows("end_to_end", ["name", "unit", "better"]), end_to_end);
        let per_layer: Vec<[String; 3]> = PER_LAYER
            .iter()
            .map(|&(name, unit, b)| [name.to_string(), unit.to_string(), better(b)])
            .collect();
        assert_eq!(rows("per_layer", ["name", "unit", "better"]), per_layer);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn compare_refuses_quick_results_and_flags_same_seed_drift() {
        let doc = |quick: bool, wire: f64, hash: &str| {
            parse_json(&format!(
                "{{\"quick\": {quick}, \"seed\": 23, \"workloads\": {{\"w\": {{\"fingerprint\": \
                 \"{hash}\", \"end_to_end\": {}, \"runs\": {{\"run_s\": [1.0, 1.0, 1.0]}}}}}}}}",
                metrics_object(&[("run_s", 1.0, "s"), ("wire_mb", wire, "MB")])
            ))
            .expect("parses")
        };
        assert!(compare(&doc(true, 1.0, "a"), &doc(false, 1.0, "a")).is_err());
        assert!(compare(&doc(false, 1.0, "a"), &doc(true, 1.0, "a")).is_err());
        let (rows, notes) = compare(&doc(false, 1.0, "a"), &doc(false, 1.0, "a")).expect("ok");
        assert!(rows.iter().all(|r| r.verdict != Verdict::Regressed));
        assert!(notes.is_empty(), "{notes:?}");
        let (rows, notes) = compare(&doc(false, 1.0, "a"), &doc(false, 1.002, "b")).expect("ok");
        let wire = rows.iter().find(|r| r.metric == "wire_mb").expect("row");
        assert_eq!(wire.verdict, Verdict::Regressed); // +0.2% > 0.1%
        assert_eq!(notes.len(), 2, "{notes:?}"); // fingerprint and wire_mb
    }
}
