//! The metric catalogue, the result line, and a small JSON reader for
//! `BENCHMARK.json` and the traced child's result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the names this command prints;
//! [`check_declared`] compares them with `BENCHMARK.json` on every run,
//! so a metric cannot be printed without being declared or declared
//! without being printed.

use std::collections::BTreeMap;

/// End-to-end metrics, printed with `--trace 0`: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("quote_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end figures too noisy on the reference host to carry a bound:
/// every run measures them, and `--trace 1` reports them under
/// [`PER_LAYER`] as `e2e.<name>`.
pub const UNBOUNDED_E2E: &[(&str, &str)] = &[
    ("op_p50_us", "us"),
    ("quote_p90_us", "us"),
    ("op_p90_us", "us"),
    ("capacity_rps", "1/s"),
    ("cpu_us_per_req", "us"),
];

/// Per-layer metrics, printed with `--trace 1`: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("e2e.op_p50_us", "us"),
    ("e2e.quote_p90_us", "us"),
    ("e2e.op_p90_us", "us"),
    ("e2e.capacity_rps", "1/s"),
    ("e2e.cpu_us_per_req", "us"),
    ("serve.quotes_per_batch", "count"),
    ("serve.parse_ns", "ns"),
    ("serve.render_ns", "ns"),
    ("serve.write_ns", "ns"),
    ("serve.unattributed_us", "us"),
    ("market.hit_ns", "ns"),
    ("market.cache_hit_ratio", "ratio"),
    ("market.set_price_us", "us"),
    ("market.purchase_us", "us"),
    ("market.wasted_per_1k", "count"),
    ("core.price_cold_sel_us", "us"),
    ("core.price_cold_chain_us", "us"),
    ("core.price_warm_us", "us"),
    ("core.batch_overhead_us", "us"),
    ("core.plan_reuse_ratio", "ratio"),
    ("flow.cold_solves_per_miss", "ratio"),
    ("flow.warm_solves_per_miss", "ratio"),
    ("flow.arena_reuse_ratio", "ratio"),
    ("query.parse_ns", "ns"),
    ("query.render_ns", "ns"),
    ("query.eval_us", "us"),
    ("store.append_p50_us", "us"),
    ("store.append_p99_us", "us"),
    ("store.fsync_p50_us", "us"),
    ("store.fsync_p99_us", "us"),
    ("store.fsyncs_per_write", "ratio"),
    ("store.bytes_per_write", "B"),
    ("alloc.per_req", "count"),
    ("alloc.bytes_per_req", "B"),
    ("obs.trace_overhead_pct", "%"),
    ("gen.lag_p99_us", "us"),
    ("gen.achieved_rps", "1/s"),
    ("gen.slo_miss_frac", "ratio"),
    ("host.steal_pct", "%"),
];

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing data at byte {}", p.i));
        }
        Ok(v)
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("JSON: {what} at byte {}", self.i))
    }

    fn eat(&mut self, lit: &str) -> Result<(), String> {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            self.err(&format!("expected {lit}"))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut members = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.ws();
                    self.eat(":")?;
                    members.push((k, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(members));
                        }
                        _ => return self.err("expected , or }"),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return self.err("expected , or ]"),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|_| Json::Bool(false)),
            Some(b'n') => self.eat("null").map(|_| Json::Null),
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .map_or_else(|| self.err("bad number"), Ok)
            }
            None => self.err("unexpected end"),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat("\"")?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.s.get(self.i) else {
                return self.err("unterminated string");
            };
            self.i += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&e) = self.s.get(self.i) else {
                        return self.err("unterminated escape");
                    };
                    self.i += 1;
                    match e {
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex =
                                std::str::from_utf8(self.s.get(self.i..self.i + 4).unwrap_or(b""))
                                    .ok()
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .and_then(char::from_u32);
                            let Some(c) = hex else {
                                return self.err("bad \\u escape");
                            };
                            out.push(c);
                            self.i += 4;
                        }
                        other => out.push(other as char),
                    }
                }
                _ => {
                    // Copy the whole UTF-8 sequence this byte starts.
                    let start = self.i - 1;
                    let len = match b {
                        0xF0..=0xFF => 4,
                        0xE0..=0xEF => 3,
                        0xC0..=0xDF => 2,
                        _ => 1,
                    };
                    let end = (start + len).min(self.s.len());
                    out.push_str(&String::from_utf8_lossy(&self.s[start..end]));
                    self.i = end;
                }
            }
        }
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
pub fn declared(manifest: &Json, section: &str) -> Result<Vec<(String, String)>, String> {
    let Some(Json::Arr(items)) = manifest.get(section) else {
        return Err(format!("BENCHMARK.json has no {section} list"));
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("a {section} entry lacks {k}"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

/// Check that `printed` and the `section` of `BENCHMARK.json` name the
/// same metrics with the same units.
pub fn check_declared(
    manifest: &Json,
    section: &str,
    printed: &[(&str, &str)],
) -> Result<(), String> {
    let mut want = declared(manifest, section)?;
    let mut got: Vec<(String, String)> = printed
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    want.sort();
    got.sort();
    if want != got {
        let missing: Vec<_> = want.iter().filter(|m| !got.contains(m)).collect();
        let extra: Vec<_> = got.iter().filter(|m| !want.contains(m)).collect();
        return Err(format!(
            "{section}: BENCHMARK.json declares {missing:?} that this command does not print, \
             and this command prints {extra:?} that BENCHMARK.json does not declare"
        ));
    }
    Ok(())
}

/// Read and parse `BENCHMARK.json` from the working directory.
pub fn load() -> Result<Json, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json in the working directory: {e}"))?;
    Json::parse(&text)
}

/// The result line: exactly the keys `correct`, `attempted`, `failed`
/// and `metrics`, with every metric of `catalogue` taken from `values`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[(&str, &str)],
    values: &BTreeMap<String, f64>,
) -> Result<String, String> {
    let mut metrics = Vec::new();
    for (name, unit) in catalogue {
        let v = values
            .get(*name)
            .copied()
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Json {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn every_printed_metric_is_declared_and_every_declared_one_printed() {
        let m = manifest();
        check_declared(&m, "end_to_end", END_TO_END).expect("end_to_end matches");
        check_declared(&m, "per_layer", PER_LAYER).expect("per_layer matches");
    }

    #[test]
    fn workloads_in_the_manifest_are_ones_this_command_runs() {
        let m = manifest();
        let Some(Json::Arr(ws)) = m.get("workloads") else {
            panic!("no workloads list");
        };
        let names: Vec<&str> = ws.iter().filter_map(|w| w.get("name")?.as_str()).collect();
        assert_eq!(names.len(), ws.len(), "every workload has a name");
        // `reprice_storm` runs by hand only: its quote p50 spread over ten
        // seeds reached 0.28, past the largest bound a benchmark may set.
        let ours: Vec<&str> = crate::spec::WORKLOADS
            .iter()
            .map(|w| w.name)
            .filter(|&n| n != "reprice_storm")
            .collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn unbounded_end_to_end_figures_are_per_layer_metrics() {
        for (name, unit) in UNBOUNDED_E2E {
            let layer = format!("e2e.{name}");
            assert!(PER_LAYER.contains(&(layer.as_str(), *unit)), "{layer}");
        }
    }

    #[test]
    fn result_line_round_trips() {
        let mut v = BTreeMap::new();
        v.insert("setup_s".to_string(), 0.125);
        let line = result_line(true, 3, 0, &[("setup_s", "s")], &v).expect("line");
        let j = Json::parse(&line).expect("parses");
        assert_eq!(j.get("attempted"), Some(&Json::Num(3.0)));
        let value = j
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .and_then(|s| s.get("value"));
        assert_eq!(value, Some(&Json::Num(0.125)));
        assert!(result_line(true, 1, 0, &[("x", "s")], &v).is_err());
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let j = Json::parse(r#"{"a": [1, -2.5e3, "x\"yé"], "b": {"c": null, "d": false}}"#)
            .expect("parses");
        let Some(Json::Arr(a)) = j.get("a") else {
            panic!("array")
        };
        assert_eq!(a[1], Json::Num(-2500.0));
        assert_eq!(a[2], Json::Str("x\"yé".to_string()));
        assert_eq!(
            j.get("b").and_then(|b| b.get("d")),
            Some(&Json::Bool(false))
        );
        assert!(Json::parse("{\"a\": 1,}").is_err());
    }
}
