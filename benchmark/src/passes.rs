//! The closed loop of the pass-based workloads: one client thread sends
//! the fixed query set, one query at a time, pass after pass.

use std::io;
use std::time::Instant;

use promips::core::SearchItem;
use promips::linalg::Matrix;

use crate::harness::{micros_since, LatencyTable};
use crate::report::Ops;

pub struct PassLoop<'a> {
    queries: &'a Matrix,
    /// Result lists of the first pass; every later pass must repeat them.
    reference: Vec<Option<Vec<SearchItem>>>,
    pub ops: Ops,
}

pub struct PassOut<R> {
    pub wall_s: f64,
    /// `None` where the search returned `Err`.
    pub results: Vec<Option<R>>,
}

impl<'a> PassLoop<'a> {
    pub fn new(queries: &'a Matrix) -> Self {
        Self {
            queries,
            reference: Vec::new(),
            ops: Ops::default(),
        }
    }

    /// Runs one pass. Each call of `search` is timed on its own; results
    /// are only inspected after the pass, so `wall_s` is the loop alone.
    pub fn run<R>(
        &mut self,
        lat: &mut LatencyTable,
        mut search: impl FnMut(&[f32]) -> io::Result<R>,
        items_of: impl Fn(&R) -> &[SearchItem],
    ) -> PassOut<R> {
        let nq = self.queries.rows();
        let mut raw = Vec::with_capacity(nq);
        let t_pass = Instant::now();
        for q in self.queries.iter_rows() {
            let t = Instant::now();
            let res = search(q);
            raw.push((res, micros_since(t)));
        }
        let wall_s = t_pass.elapsed().as_secs_f64();

        let first_pass = self.reference.is_empty();
        let mut results = Vec::with_capacity(nq);
        for (qi, (res, us)) in raw.into_iter().enumerate() {
            let res = self.ops.note("search", res);
            if let Some(r) = &res {
                lat.record(qi, us);
                if first_pass {
                    self.reference.push(Some(items_of(r).to_vec()));
                } else if self.reference[qi].as_deref() != Some(items_of(r)) {
                    self.ops.failed += 1;
                    println!("FAILED query {qi}: result differs from the first pass");
                }
            } else if first_pass {
                self.reference.push(None);
            }
            results.push(res);
        }
        PassOut { wall_s, results }
    }
}
