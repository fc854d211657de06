//! The sharded fan-out answers alike serially, beside the process's sweep
//! helper, and with the helper already owned elsewhere. A binary of its
//! own: in a binary whose other tests build and query, those tests often
//! own the helper, and the "beside the helper" case would then run
//! serially and check nothing.

use promips_core::ProMipsConfig;
use promips_linalg::Matrix;
use promips_shard::{ShardedConfig, ShardedProMips, ShardedQuery, ShardedScratch};
use promips_stats::Xoshiro256pp;

mod common;
use common::{span_counts, with_helper_owned};

fn random_data(n: usize, d: usize, seed: u64) -> Matrix {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    Matrix::from_rows(
        d,
        (0..n).map(|_| (0..d).map(|_| rng.normal() as f32).collect::<Vec<f32>>()),
    )
}

fn random_queries(nq: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    (0..nq)
        .map(|_| (0..d).map(|_| rng.normal() as f32).collect())
        .collect()
}

/// The answer and every shard's counts are the same whether the fan-out
/// runs serially, beside the helper, or with the helper already owned
/// elsewhere (so the default request falls back to the serial loop).
#[test]
fn results_are_thread_count_invariant() {
    let data = random_data(1200, 16, 5);
    let idx = ShardedProMips::build_in_memory(
        &data,
        ShardedConfig::builder()
            .shards(5)
            .base(ProMipsConfig::builder().seed(2).build())
            .build(),
    )
    .unwrap();
    let scratch = ShardedScratch::for_index(&idx);
    let run = |q: &[f32], serial: bool| {
        let request = ShardedQuery {
            serial,
            traced: true,
            ..ShardedQuery::new(q, 7)
        };
        let (res, trace) = idx.execute(request, &scratch).unwrap();
        (res, span_counts(&trace.expect("traced")))
    };
    let mut wide_fan_outs = 0;
    for q in random_queries(8, 16, 17) {
        let want = run(&q, true);
        let fanned = want.1.iter().filter(|s| !s.1 && !s.2).count();
        wide_fan_outs += usize::from(fanned > 1);
        assert_eq!(run(&q, false), want, "beside the helper");
        assert_eq!(with_helper_owned(|| run(&q, false)), want, "helper owned");
    }
    assert!(wide_fan_outs > 0, "no query fanned out to two shards");
}
