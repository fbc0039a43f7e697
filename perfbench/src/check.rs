//! The output check: every answer the clients saw is compared bit for bit
//! (tuple ids, score bits, order) against an in-process unsharded engine,
//! which is itself spot-checked against the naive join.

use crate::gen::{self, K, RELATIONS};
use prj_access::{AccessKind, Tuple, TupleId};
use prj_api::{Request, Response, ResultRow, TupleData};
use prj_core::{naive_rank_join, EuclideanLogScore, ProblemBuilder};
use prj_engine::{to_row, Engine, EngineBuilder, Plan, Session};
use prj_geometry::Vector;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A 64-bit FNV-1a digest of an answer: row count, then each row's score
/// bits and tuple ids, in order. Storing digests instead of rows keeps the
/// clients' memory flat however many answers a run collects.
pub fn fingerprint(rows: &[ResultRow]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(rows.len() as u64);
    for row in rows {
        eat(row.score.to_bits());
        eat(row.tuples.len() as u64);
        for &(relation, index) in &row.tuples {
            eat(relation as u64);
            eat(index as u64);
        }
    }
    hash
}

/// Two answers are the same when ids, score bits and order all agree.
pub fn same_rows(a: &[ResultRow], b: &[ResultRow]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.tuples == y.tuples && x.score.to_bits() == y.score.to_bits())
}

/// The reference: an in-process unsharded engine fed the same tuples.
pub struct Reference {
    session: Session,
    engine: Arc<Engine>,
}

impl Reference {
    /// Registers `data` as the workload's relations.
    pub fn new(data: &[Vec<TupleData>]) -> Reference {
        let engine = Arc::new(EngineBuilder::default().build());
        let session = Session::new(Arc::clone(&engine));
        for (name, tuples) in RELATIONS.iter().zip(data) {
            let response = session.handle(Request::RegisterRelation {
                name: name.to_string(),
                tuples: tuples.clone(),
            });
            assert!(
                matches!(response, Response::Registered { .. }),
                "reference register: {response:?}"
            );
        }
        Reference { session, engine }
    }

    /// Appends one tuple, as a client append would.
    pub fn append(&self, relation: usize, tuple: TupleData) {
        let response = self.session.handle(Request::AppendTuples {
            relation: RELATIONS[relation].into(),
            tuples: vec![tuple],
        });
        assert!(
            matches!(response, Response::Appended { .. }),
            "reference append: {response:?}"
        );
    }

    /// The reference answers at `points`, computed on the engine's threads.
    pub fn answers(&self, points: &[[f64; 2]]) -> Vec<Vec<ResultRow>> {
        let specs = points
            .iter()
            .map(|&p| {
                self.session
                    .build_query_spec(gen::query(p))
                    .expect("reference query spec")
            })
            .collect();
        self.engine
            .query_batch(specs)
            .into_iter()
            .map(|result| {
                let result = result.expect("reference query");
                result.combinations().iter().map(to_row).collect()
            })
            .collect()
    }
}

fn core_tuples(data: &[Vec<TupleData>]) -> Vec<Vec<Tuple>> {
    data.iter()
        .enumerate()
        .map(|(relation, tuples)| {
            tuples
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    Tuple::new(
                        TupleId::new(relation, i),
                        Vector::from(t.coords.clone()),
                        t.score,
                    )
                })
                .collect()
        })
        .collect()
}

/// The exact top-K by exhaustive enumeration (`prj_core::naive_rank_join`).
pub fn naive(data: &[Vec<TupleData>], point: [f64; 2]) -> Vec<ResultRow> {
    let mut problem = ProblemBuilder::new(Vector::from(point), EuclideanLogScore::default())
        .k(K)
        .relations_from_tuples(core_tuples(data))
        .build()
        .expect("naive problem");
    naive_rank_join(&mut problem)
        .combinations
        .iter()
        .map(to_row)
        .collect()
}

/// What one direct operator run cost.
pub struct CoreRun {
    /// Time inside the algorithm's run.
    pub elapsed: Duration,
    /// Its `sumDepths`.
    pub depth: u64,
}

/// Runs `plan`'s algorithm directly through `prj-core` on the unsharded
/// tuples, timing only the run.
pub fn core_run(data: &[Vec<TupleData>], point: [f64; 2], plan: &Plan) -> CoreRun {
    let mut problem = ProblemBuilder::new(Vector::from(point), EuclideanLogScore::default())
        .k(K)
        .access_kind(AccessKind::Distance)
        .dominance_period(plan.dominance_period)
        .relations_from_tuples(core_tuples(data))
        .build()
        .expect("core problem");
    let started = Instant::now();
    let result = plan.algorithm.run(&mut problem).expect("core run");
    CoreRun {
        elapsed: started.elapsed(),
        depth: result.sum_depths() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_the_naive_join() {
        let data = gen::relations(3, 60);
        let reference = Reference::new(&data);
        let points = gen::points(3, gen::SPOT_CHECK, 4);
        for (point, rows) in points.iter().zip(reference.answers(&points)) {
            assert!(same_rows(&rows, &naive(&data, *point)));
        }
    }

    #[test]
    fn fingerprint_sees_one_flipped_bit() {
        let data = gen::relations(4, 40);
        let rows = Reference::new(&data).answers(&[[0.1, 0.2]]).remove(0);
        let mut flipped = rows.clone();
        flipped[0].score = f64::from_bits(flipped[0].score.to_bits() ^ 1);
        assert_ne!(fingerprint(&rows), fingerprint(&flipped));
        assert!(!same_rows(&rows, &flipped));
    }
}
