//! Per-query stage tracing.
//!
//! A [`QueryTrace`] is an opt-in breakdown of a single sharded search:
//! wall time split across scan → screen → verify per shard, the
//! cross-shard merge, and the fan-out decisions (which shards were
//! pruned by the norm bound, which seeded the floor). Traces are plain
//! data — the query path fills one in only when the caller asked for
//! it, and it is the only place a query's times are kept: the registry
//! counts events, it does not time them. Its spans are also the only
//! per-shard account of a query (the search result keeps the answer and
//! the counts summed over the spans); whether the query degraded is read
//! off them, [`QueryTrace::shards_failed`] `> 0`.

/// Nanoseconds spent in each in-shard stage of one search.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageNanos {
    /// Projection, Quick-Probe annulus location, and iDistance range
    /// scans producing the candidate stream.
    pub scan_ns: u64,
    /// The SQ8 screen+rescore verification tier (code fetch, i8 screen,
    /// survivor rescore).
    pub screen_ns: u64,
    /// Plain f32 verification, delta-overlay scoring, and the shortfall
    /// nearest-neighbor sweep.
    pub verify_ns: u64,
}

impl StageNanos {
    pub fn total(&self) -> u64 {
        self.scan_ns + self.screen_ns + self.verify_ns
    }

    pub fn accumulate(&mut self, other: &StageNanos) {
        self.scan_ns += other.scan_ns;
        self.screen_ns += other.screen_ns;
        self.verify_ns += other.verify_ns;
    }
}

/// One shard's slice of a fan-out.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardSpan {
    pub shard: usize,
    /// Skipped entirely by the Cauchy–Schwarz norm bound; every timing
    /// and count field is zero.
    pub pruned: bool,
    /// Searched in phase 1: its k-th inner product is the floor the other
    /// shards' pruning bounds are tested against and their searches are
    /// held to ([`QueryTrace::kth_floor`]).
    pub seed: bool,
    /// The shard's search failed (IO fault, deadline, poisoned worker)
    /// and a best-effort merge excluded it; the timing and count fields
    /// cover the work done before the failure was detected.
    pub failed: bool,
    /// Wall time of this shard's search call.
    pub elapsed_ns: u64,
    pub stages: StageNanos,
    /// Rows the cheap tier looked at: candidates produced by the annulus
    /// range scans, or — on the column pass — code rows the pass has read.
    pub scanned: u64,
    pub screened: u64,
    pub verified: u64,
    /// Input of the index-or-scan rule: rows held by the sub-partitions
    /// whose pivot sphere meets the Quick-Probe ball (0 when the rule did
    /// not run: no verification tier, a shard with no index, a pruned shard).
    pub covered_rows: u64,
    /// The rule's verdict: this search was answered by one sequential pass
    /// over the SQ8 code column (exact) instead of the annulus scan.
    pub column_pass: bool,
}

/// Full per-query trace, assembled by the sharded search layer.
#[derive(Clone, Debug, Default)]
pub struct QueryTrace {
    pub k: usize,
    /// Monotonic [`crate::now_ns`] timestamp when the query started.
    pub started_at_ns: u64,
    /// End-to-end wall time of the sharded search call.
    pub total_ns: u64,
    /// Cross-shard top-k merge.
    pub merge_ns: u64,
    /// Remaining deadline budget when the search completed, if the query
    /// carried one (0 means the deadline fired).
    pub budget_remaining_ns: Option<u64>,
    /// The seed shard's k-th inner product, when its probe returned `k`
    /// rows: the bar every other searched shard was held to, and what each
    /// pruned shard's Cauchy–Schwarz bound `‖q‖·max_norm` fell below (the
    /// difference is its slack). `None` when there was no seed probe
    /// (pruning off, one shard) or it failed or came back short.
    pub kth_floor: Option<f64>,
    /// One span per shard, pruned shards included (with zero timings).
    pub shards: Vec<ShardSpan>,
}

impl QueryTrace {
    /// Stage totals summed across shards (pruned spans contribute 0).
    pub fn stages(&self) -> StageNanos {
        let mut agg = StageNanos::default();
        for span in &self.shards {
            agg.accumulate(&span.stages);
        }
        agg
    }

    /// Nanoseconds the trace accounts for: the measured wall time of
    /// every shard span plus the merge. (The stage sums are a finer
    /// breakdown *within* the spans and deliberately exclude per-shard
    /// bookkeeping like candidate-heap maintenance, so they run a little
    /// below the span times.)
    pub fn accounted_ns(&self) -> u64 {
        self.shards.iter().map(|s| s.elapsed_ns).sum::<u64>() + self.merge_ns
    }

    /// Fraction of the end-to-end wall time explained by the trace's
    /// spans ([`QueryTrace::accounted_ns`]), in [0, 1] for a serial
    /// fan-out. (A fan-out shared with the sweep helper sums span time over
    /// both threads, which can exceed the wall clock.)
    pub fn coverage(&self) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        self.accounted_ns() as f64 / self.total_ns as f64
    }

    pub fn shards_pruned(&self) -> usize {
        self.shards.iter().filter(|s| s.pruned).count()
    }

    /// Shards whose search failed and were excluded by a best-effort
    /// merge: the result is degraded exactly when this is non-zero (a
    /// fail-fast failure returns an error and no trace).
    pub fn shards_failed(&self) -> usize {
        self.shards.iter().filter(|s| s.failed).count()
    }

    /// Shards neither pruned nor failed, as
    /// [`CounterId::ShardsSearched`](crate::CounterId::ShardsSearched)
    /// counts them: searched + pruned + failed is the shard count.
    pub fn shards_searched(&self) -> usize {
        let answered = |s: &&ShardSpan| !s.pruned && !s.failed;
        self.shards.iter().filter(answered).count()
    }

    /// Compact one-line-per-shard rendering for logs and examples.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let st = self.stages();
        writeln!(
            out,
            "query k={} total={}us (scan={}us screen={}us verify={}us merge={}us, coverage={:.1}%){}{}",
            self.k,
            self.total_ns / 1_000,
            st.scan_ns / 1_000,
            st.screen_ns / 1_000,
            st.verify_ns / 1_000,
            self.merge_ns / 1_000,
            self.coverage() * 100.0,
            if self.shards_failed() > 0 {
                " DEGRADED"
            } else {
                ""
            },
            match self.budget_remaining_ns {
                Some(ns) => format!(" budget-left={}us", ns / 1_000),
                None => String::new(),
            },
        )
        .unwrap();
        for s in &self.shards {
            if s.pruned {
                writeln!(out, "  shard {:>3}: pruned (norm bound)", s.shard).unwrap();
            } else {
                writeln!(
                    out,
                    "  shard {:>3}: {}us{}{} scanned={} screened={} verified={} covered={}{}",
                    s.shard,
                    s.elapsed_ns / 1_000,
                    if s.seed { " [seed]" } else { "" },
                    if s.failed {
                        " FAILED (excluded from merge)"
                    } else {
                        ""
                    },
                    s.scanned,
                    s.screened,
                    s.verified,
                    s.covered_rows,
                    if s.column_pass { " [column pass]" } else { "" },
                )
                .unwrap();
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> QueryTrace {
        QueryTrace {
            k: 10,
            started_at_ns: 1,
            total_ns: 1_000,
            merge_ns: 50,
            budget_remaining_ns: None,
            kth_floor: None,
            shards: vec![
                ShardSpan {
                    shard: 0,
                    seed: true,
                    elapsed_ns: 600,
                    stages: StageNanos {
                        scan_ns: 300,
                        screen_ns: 200,
                        verify_ns: 80,
                    },
                    scanned: 40,
                    screened: 30,
                    verified: 10,
                    ..Default::default()
                },
                ShardSpan {
                    shard: 1,
                    pruned: true,
                    ..Default::default()
                },
                ShardSpan {
                    shard: 2,
                    elapsed_ns: 330,
                    stages: StageNanos {
                        scan_ns: 150,
                        screen_ns: 100,
                        verify_ns: 60,
                    },
                    scanned: 20,
                    screened: 12,
                    verified: 8,
                    covered_rows: 19,
                    column_pass: true,
                    ..Default::default()
                },
            ],
        }
    }

    #[test]
    fn aggregates_and_coverage() {
        let t = sample_trace();
        let st = t.stages();
        assert_eq!(st.scan_ns, 450);
        assert_eq!(st.screen_ns, 300);
        assert_eq!(st.verify_ns, 140);
        assert_eq!(st.total(), 890);
        assert_eq!(t.accounted_ns(), 980);
        assert!((t.coverage() - 0.98).abs() < 1e-12);
        assert_eq!(t.shards_pruned(), 1);
        assert_eq!(t.shards_searched(), 2);
    }

    #[test]
    fn render_mentions_every_shard() {
        let text = sample_trace().render();
        assert!(text.contains("shard   0"));
        assert!(text.contains("[seed]"));
        assert!(text.contains("pruned (norm bound)"));
        assert!(text.contains("coverage=98.0%"));
        // The index-or-scan rule's input on every searched shard, its
        // verdict only where the column pass ran.
        assert!(text.contains("verified=10 covered=0\n"));
        assert!(text.contains("verified=8 covered=19 [column pass]"));
        // The verdict is read off the spans: a failed shard degrades it.
        assert!(!text.contains("DEGRADED"));
        let mut t = sample_trace();
        t.shards[2].failed = true;
        let text = t.render();
        assert!(text.contains(" DEGRADED"));
        assert!(text.contains("FAILED (excluded from merge)"));
    }
}
