//! Seeded inputs: relations, query streams and the hot-point mix. Every
//! stream derives from the workload seed plus a fixed salt, so the same
//! seed gives the same tuples and the same query sequence per connection.

use prj_api::{QueryRequest, TupleData};

/// SplitMix64: tiny, fast, and fully specified, so inputs never depend on
/// an outside crate's generator.
pub struct Rng(u64);

impl Rng {
    /// A stream keyed by `seed` and a per-use `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut rng = Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

// Salts naming each input stream.
pub const DATA: u64 = 1;
pub const COUNT_PASS: u64 = 2;
pub const STREAM: u64 = 3;
pub const HOT: u64 = 5;
pub const SUBSCRIPTIONS: u64 = 6;
pub const SPOT_CHECK: u64 = 7;

/// The relation names every workload registers.
pub const RELATIONS: [&str; 2] = ["r0", "r1"];

/// Results per query.
pub const K: usize = 8;

/// Points of the data set are uniform in `[-3, 3]^2`; queries fall in
/// `[-2.5, 2.5]^2` so every query has data around it on all sides.
const DATA_EXTENT: f64 = 3.0;
const QUERY_EXTENT: f64 = 2.5;

/// Two relations of `n` tuples each, uniform over `[-3, 3]^2` and over
/// scores in `(0, 1]`, drawn by stratified sampling: each point falls at a
/// random spot of its own grid cell, and the scores are one random draw
/// from each of `n` equal slices of `(0, 1]`, shuffled over the points.
/// Every seed then gives the same spatial density and the same score
/// distribution (its top scores especially, which decide how deep a query
/// reads), so the seed changes which tuple sits where, not how costly the
/// data set is.
pub fn relations(seed: u64, n: usize) -> Vec<Vec<TupleData>> {
    let mut rng = Rng::new(seed, DATA);
    let cols = (n as f64).sqrt().ceil().max(1.0) as usize;
    let rows = n.div_ceil(cols);
    let cell = [
        2.0 * DATA_EXTENT / cols as f64,
        2.0 * DATA_EXTENT / rows as f64,
    ];
    (0..RELATIONS.len())
        .map(|_| {
            let mut cells: Vec<usize> = (0..rows * cols).collect();
            shuffle(&mut cells, &mut rng);
            let mut scores: Vec<f64> = (0..n)
                .map(|i| 1e-3 + (1.0 - 1e-3) * (1.0 - (i as f64 + rng.unit()) / n as f64))
                .collect();
            shuffle(&mut scores, &mut rng);
            cells[..n]
                .iter()
                .zip(scores)
                .map(|(&c, score)| {
                    let x = -DATA_EXTENT + cell[0] * ((c % cols) as f64 + rng.unit());
                    let y = -DATA_EXTENT + cell[1] * ((c / cols) as f64 + rng.unit());
                    TupleData::new([x, y], score)
                })
                .collect()
        })
        .collect()
}

/// Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// A top-k query over both relations at `point`.
pub fn query(point: [f64; 2]) -> QueryRequest {
    QueryRequest::new(RELATIONS.iter().map(|&r| r.into()).collect(), point).k(K)
}

/// A never-repeating stream of query points, one per `(salt, lane)`: the
/// additive R2 sequence from a seeded start. Its points spread evenly over
/// the query square, so a few thousand of them sample it alike for every
/// seed and the measured mix does not swing with the seed.
pub struct PointStream {
    start: [f64; 2],
    n: u64,
}

/// `1/g` and `1/g^2` for the plastic number `g`, the R2 sequence's steps.
const R2_STEP: [f64; 2] = [0.754_877_666_246_692_7, 0.569_840_290_998_053_3];

impl PointStream {
    /// Stream `lane` of the points salted by `salt`.
    pub fn new(seed: u64, salt: u64, lane: u64) -> PointStream {
        let mut rng = Rng::new(seed, salt.wrapping_mul(1009).wrapping_add(lane));
        PointStream {
            start: [rng.unit(), rng.unit()],
            n: 0,
        }
    }

    /// The next point.
    pub fn next_point(&mut self) -> [f64; 2] {
        self.n += 1;
        let at = |d: usize| {
            let u = (self.start[d] + self.n as f64 * R2_STEP[d]).fract();
            QUERY_EXTENT * (2.0 * u - 1.0)
        };
        [at(0), at(1)]
    }
}

/// `n` points from `salt`'s lane 0.
pub fn points(seed: u64, salt: u64, n: usize) -> Vec<[f64; 2]> {
    let mut stream = PointStream::new(seed, salt, 0);
    (0..n).map(|_| stream.next_point()).collect()
}

/// A Zipf-like draw over `n` hot points: point `i` has weight `1/(i+1)`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks.
    pub fn new(n: usize) -> Zipf {
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|i| {
                total += 1.0 / (i as f64 + 1.0);
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// One rank drawn with `rng`.
    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = relations(9, 50);
        let b = relations(9, 50);
        assert_eq!(a, b);
        assert_ne!(a, relations(10, 50));
        for tuples in &a {
            assert_eq!(tuples.len(), 50);
            assert!(tuples.iter().all(|t| t.score > 0.0 && t.score <= 1.0));
            assert!(tuples
                .iter()
                .flat_map(|t| &t.coords)
                .all(|c| c.abs() <= DATA_EXTENT));
        }
    }

    #[test]
    fn streams_never_repeat_and_differ_by_lane() {
        let a = points(1, STREAM, 2000);
        let mut sorted: Vec<(u64, u64)> =
            a.iter().map(|p| (p[0].to_bits(), p[1].to_bits())).collect();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len());
        assert!(a.iter().flatten().all(|c| c.abs() <= QUERY_EXTENT));
        assert_ne!(PointStream::new(1, STREAM, 1).next_point(), a[0]);
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let zipf = Zipf::new(64);
        let mut rng = Rng::new(1, HOT);
        let mut counts = [0usize; 64];
        for _ in 0..10_000 {
            counts[zipf.draw(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[63]);
        assert!(counts.iter().all(|&c| c > 0));
    }
}
