//! Profile database: measured kernel timings keyed by backend, shape
//! and bandwidth condition.

use std::collections::BTreeMap;

use hetero_soc::{Backend, SimTime};
use hetero_tensor::shape::MatmulShape;
use serde::{Deserialize, Serialize};

/// Whether a measurement was taken with exclusive or shared memory
/// bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum BwCondition {
    /// The backend streamed alone.
    Solo,
    /// GPU and NPU streamed concurrently.
    Contended,
}

/// Key of one profiled measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProfileKey {
    /// Backend ordinal (BTreeMap ordering); see [`ProfileKey::new`].
    pub backend: u8,
    /// Sequence rows.
    pub m: usize,
    /// Reduction dimension.
    pub k: usize,
    /// Output features.
    pub n: usize,
    /// Streamed-operand storage width, bits.
    pub act_bits: usize,
    /// Stationary-operand storage width, bits.
    pub weight_bits: usize,
    /// Bandwidth condition.
    pub condition: BwCondition,
}

impl ProfileKey {
    /// Build a key.
    pub fn new(
        backend: Backend,
        shape: MatmulShape,
        act_bits: usize,
        weight_bits: usize,
        condition: BwCondition,
    ) -> Self {
        let backend = match backend {
            Backend::Cpu => 0,
            Backend::Gpu => 1,
            Backend::Npu => 2,
        };
        Self {
            backend,
            m: shape.m,
            k: shape.k,
            n: shape.n,
            act_bits,
            weight_bits,
            condition,
        }
    }

    /// The shape this key describes.
    pub fn shape(&self) -> MatmulShape {
        MatmulShape::new(self.m, self.k, self.n)
    }
}

/// Measured kernel timings (microseconds, stored exactly as nanos).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ProfileDb {
    // Serialized as a list of `[key, value]` pairs, like every map:
    // struct keys are not valid JSON object keys.
    entries: BTreeMap<ProfileKey, u64>,
}

impl ProfileDb {
    /// New, empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a measurement (overwrites an existing entry).
    pub fn record(&mut self, key: ProfileKey, time: SimTime) {
        self.entries.insert(key, time.as_nanos());
    }

    /// Look up a measurement.
    pub fn lookup(&self, key: &ProfileKey) -> Option<SimTime> {
        self.entries.get(key).copied().map(SimTime::from_nanos)
    }

    /// Number of measurements.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over all measurements.
    pub fn iter(&self) -> impl Iterator<Item = (&ProfileKey, SimTime)> {
        self.entries
            .iter()
            .map(|(k, v)| (k, SimTime::from_nanos(*v)))
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Deserialize from JSON.
    pub fn from_json(s: &str) -> serde_json::Result<Self> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(m: usize) -> ProfileKey {
        ProfileKey::new(
            Backend::Npu,
            MatmulShape::new(m, 64, 64),
            16,
            4,
            BwCondition::Solo,
        )
    }

    #[test]
    fn record_and_lookup() {
        let mut db = ProfileDb::new();
        assert!(db.is_empty());
        db.record(key(32), SimTime::from_micros(100));
        assert_eq!(db.lookup(&key(32)), Some(SimTime::from_micros(100)));
        assert_eq!(db.lookup(&key(64)), None);
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn overwrite_updates() {
        let mut db = ProfileDb::new();
        db.record(key(32), SimTime::from_micros(100));
        db.record(key(32), SimTime::from_micros(50));
        assert_eq!(db.lookup(&key(32)), Some(SimTime::from_micros(50)));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn conditions_are_distinct_keys() {
        let mut db = ProfileDb::new();
        let solo = key(32);
        let cont = ProfileKey {
            condition: BwCondition::Contended,
            ..solo
        };
        db.record(solo, SimTime::from_micros(10));
        db.record(cont, SimTime::from_micros(20));
        assert_eq!(db.len(), 2);
        assert_ne!(db.lookup(&solo), db.lookup(&cont));
    }

    #[test]
    fn json_roundtrip() {
        let mut db = ProfileDb::new();
        db.record(key(32), SimTime::from_micros(123));
        db.record(key(64), SimTime::from_micros(456));
        let json = db.to_json().unwrap();
        let back = ProfileDb::from_json(&json).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.lookup(&key(64)), Some(SimTime::from_micros(456)));
    }

    #[test]
    fn json_bytes_are_a_pair_list() {
        let mut db = ProfileDb::new();
        db.record(key(64), SimTime::from_micros(456));
        db.record(key(32), SimTime::from_micros(123));
        let entry = |m: usize, ns: u64| {
            format!(
                r#"[{{"backend":2,"m":{m},"k":64,"n":64,"act_bits":16,"weight_bits":4,"condition":"Solo"}},{ns}]"#
            )
        };
        assert_eq!(
            db.to_json().unwrap(),
            format!(
                r#"{{"entries":[{},{}]}}"#,
                entry(32, 123_000),
                entry(64, 456_000)
            )
        );
    }

    #[test]
    fn key_roundtrips_shape() {
        let k = key(48);
        assert_eq!(k.shape(), MatmulShape::new(48, 64, 64));
    }
}
