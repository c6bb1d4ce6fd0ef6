//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms. [`crate::Stats`] is a thin struct-of-counters view over
//! the same quantities — [`crate::Stats::to_registry`] produces the
//! registry form, the one that run reports and `/metrics` carry.

use std::borrow::Cow;

use super::json::Json;

/// A fixed-bucket histogram over `u64` samples.
///
/// `bounds` are inclusive upper edges; a sample lands in the first bucket
/// whose bound it does not exceed, or in the implicit overflow bucket.
/// `counts.len() == bounds.len() + 1`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Borrowed when the edges are a constant ([`Histogram::from_static`]),
    /// owned when built from a runtime slice or read from JSON.
    bounds: Cow<'static, [u64]>,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// A histogram with the given inclusive upper bucket edges (must be
    /// strictly increasing).
    pub fn new(bounds: &[u64]) -> Histogram {
        Histogram::with_bounds(Cow::Owned(bounds.to_vec()))
    }

    /// A histogram over constant bucket edges, which it borrows instead
    /// of copying (cloning it copies no edges either).
    pub fn from_static(bounds: &'static [u64]) -> Histogram {
        Histogram::with_bounds(Cow::Borrowed(bounds))
    }

    fn with_bounds(bounds: Cow<'static, [u64]>) -> Histogram {
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must increase");
        Histogram { counts: vec![0; bounds.len() + 1], bounds, count: 0, sum: 0, max: 0 }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        if self.counts.is_empty() {
            // a Default-constructed histogram has no buckets at all; give
            // it a single overflow bucket so it still totals correctly
            self.counts = vec![0];
        }
        // a forward scan: there are a handful of bounds, and most samples
        // (queue depths and stall spans, taken once per issue or stall)
        // land in the first few buckets
        let i = self.bounds.iter().position(|&b| v <= b).unwrap_or(self.bounds.len());
        self.counts[i] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Iterate `(inclusive_upper_bound, count)`; the final entry is the
    /// overflow bucket with bound `u64::MAX`.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.bounds
            .iter()
            .copied()
            .chain(std::iter::once(u64::MAX))
            .zip(self.counts.iter().copied())
    }

    /// Serialize.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("bounds".into(), Json::Arr(self.bounds.iter().map(|&b| Json::U64(b)).collect())),
            ("counts".into(), Json::Arr(self.counts.iter().map(|&c| Json::U64(c)).collect())),
            ("count".into(), Json::U64(self.count)),
            ("sum".into(), Json::U64(self.sum)),
            ("max".into(), Json::U64(self.max)),
        ])
    }

    /// Deserialize the object produced by [`Histogram::to_json`].
    pub fn from_json(v: &Json) -> Option<Histogram> {
        let arr = |key: &str| -> Option<Vec<u64>> {
            v.get(key)?.as_arr()?.iter().map(Json::as_u64).collect()
        };
        let h = Histogram {
            bounds: Cow::Owned(arr("bounds")?),
            counts: arr("counts")?,
            count: v.get("count")?.as_u64()?,
            sum: v.get("sum")?.as_u64()?,
            max: v.get("max")?.as_u64()?,
        };
        (h.counts.len() == h.bounds.len() + 1).then_some(h)
    }
}

/// One registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic count of occurrences.
    Counter(u64),
    /// Point-in-time or derived value (utilizations, rates).
    Gauge(f64),
    /// Distribution of samples.
    Histogram(Histogram),
}

/// An ordered collection of named metrics. Registration order is
/// preserved so serialized reports diff cleanly run-to-run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    entries: Vec<(String, MetricValue)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn slot(&mut self, name: &str, default: MetricValue) -> &mut MetricValue {
        if let Some(i) = self.entries.iter().position(|(n, _)| n == name) {
            &mut self.entries[i].1
        } else {
            self.entries.push((name.to_string(), default));
            &mut self.entries.last_mut().unwrap().1
        }
    }

    /// Add to a counter (creating it at 0).
    pub fn counter_add(&mut self, name: &str, n: u64) {
        match self.slot(name, MetricValue::Counter(0)) {
            MetricValue::Counter(c) => *c += n,
            other => panic!("metric `{name}` is not a counter: {other:?}"),
        }
    }

    /// Set a gauge (creating it).
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        match self.slot(name, MetricValue::Gauge(0.0)) {
            MetricValue::Gauge(g) => *g = v,
            other => panic!("metric `{name}` is not a gauge: {other:?}"),
        }
    }

    /// Record a sample into a histogram (creating it with `bounds`).
    pub fn histogram_record(&mut self, name: &str, bounds: &[u64], v: u64) {
        match self.slot(name, MetricValue::Histogram(Histogram::new(bounds))) {
            MetricValue::Histogram(h) => h.record(v),
            other => panic!("metric `{name}` is not a histogram: {other:?}"),
        }
    }

    /// Install a pre-built histogram (replacing any existing entry).
    pub fn histogram_set(&mut self, name: &str, h: Histogram) {
        *self.slot(name, MetricValue::Histogram(Histogram::default())) = MetricValue::Histogram(h);
    }

    /// Look up a metric.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// A counter's value (0 if absent — counters that never fired are not
    /// registered).
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricValue::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// A gauge's value, if registered.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.get(name) {
            Some(MetricValue::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// A histogram, if registered.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Iterate `(name, value)` in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serialize: an ordered object mapping each name to a typed value
    /// (`{"counter": n}`, `{"gauge": x}` or `{"histogram": {...}}`).
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.entries
                .iter()
                .map(|(name, v)| {
                    let typed = match v {
                        MetricValue::Counter(c) => {
                            Json::Obj(vec![("counter".into(), Json::U64(*c))])
                        }
                        MetricValue::Gauge(g) => Json::Obj(vec![("gauge".into(), Json::F64(*g))]),
                        MetricValue::Histogram(h) => {
                            Json::Obj(vec![("histogram".into(), h.to_json())])
                        }
                    };
                    (name.clone(), typed)
                })
                .collect(),
        )
    }

    /// Deserialize the object produced by [`Registry::to_json`].
    pub fn from_json(v: &Json) -> Option<Registry> {
        let mut reg = Registry::new();
        for (name, typed) in v.as_obj()? {
            let value = if let Some(c) = typed.get("counter") {
                MetricValue::Counter(c.as_u64()?)
            } else if let Some(g) = typed.get("gauge") {
                MetricValue::Gauge(g.as_f64()?)
            } else if let Some(h) = typed.get("histogram") {
                MetricValue::Histogram(Histogram::from_json(h)?)
            } else {
                return None;
            };
            reg.entries.push((name.clone(), value));
        }
        Some(reg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucketing() {
        let mut h = Histogram::new(&[1, 2, 4, 8]);
        for v in [0, 1, 2, 3, 4, 5, 8, 9, 100] {
            h.record(v);
        }
        let buckets: Vec<(u64, u64)> = h.buckets().collect();
        assert_eq!(
            buckets,
            vec![(1, 2), (2, 1), (4, 2), (8, 2), (u64::MAX, 2)],
            "0,1 | 2 | 3,4 | 5,8 | 9,100"
        );
        assert_eq!(h.count(), 9);
        assert_eq!(h.max(), 100);
        assert_eq!(h.sum(), 132);
        assert!((h.mean() - 132.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn default_histogram_still_counts() {
        let mut h = Histogram::default();
        h.record(7);
        assert_eq!(h.count(), 1);
        assert_eq!(h.buckets().collect::<Vec<_>>(), vec![(u64::MAX, 1)]);
    }

    #[test]
    fn histogram_round_trips() {
        let mut h = Histogram::new(&[1, 4, 16]);
        for v in [0, 3, 200] {
            h.record(v);
        }
        assert_eq!(Histogram::from_json(&h.to_json()), Some(h));
    }

    #[test]
    fn static_bounds_behave_like_owned_ones() {
        static BOUNDS: [u64; 3] = [1, 4, 16];
        let mut borrowed = Histogram::from_static(&BOUNDS);
        let mut owned = Histogram::new(&BOUNDS);
        for v in [0, 3, 5, 200] {
            borrowed.record(v);
            owned.record(v);
        }
        assert_eq!(borrowed, owned);
        assert_eq!(borrowed.to_json(), owned.to_json());
        assert_eq!(Histogram::from_json(&borrowed.to_json()), Some(borrowed));
    }

    #[test]
    fn registry_basics_and_order() {
        let mut r = Registry::new();
        r.counter_add("b.count", 2);
        r.counter_add("a.count", 1);
        r.counter_add("b.count", 3);
        r.gauge_set("util", 0.5);
        r.histogram_record("depth", &[1, 2], 2);
        assert_eq!(r.counter("b.count"), 5);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.gauge("util"), Some(0.5));
        assert_eq!(r.histogram("depth").unwrap().count(), 1);
        let names: Vec<&str> = r.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["b.count", "a.count", "util", "depth"], "insertion order");
    }

    #[test]
    fn registry_round_trips() {
        let mut r = Registry::new();
        r.counter_add("cycles", 100);
        r.gauge_set("ipc", 0.25);
        r.histogram_record("spans", &[1, 8], 6);
        let back = Registry::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn type_confusion_panics() {
        let mut r = Registry::new();
        r.gauge_set("x", 1.0);
        r.counter_add("x", 1);
    }
}
