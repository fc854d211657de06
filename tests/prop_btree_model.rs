//! Model-based property test: a bulk-loaded disk B+-tree must answer point
//! lookups and range scans exactly like an in-memory ordered multimap
//! holding the same pairs — keys in order, equal keys in load order.

use std::collections::BTreeMap;
use std::sync::Arc;

use promips::btree::BTree;
use promips::storage::Pager;
use proptest::prelude::*;

/// Keys with long duplicate runs: a quarter of them land on one key, so a
/// run straddles leaves at every page size.
fn key_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![3 => 0u64..300, 1 => Just(150u64)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn btree_matches_ordered_multimap(
        page_size in prop_oneof![Just(64usize), Just(128), Just(4096)],
        mut pairs in proptest::collection::vec((key_strategy(), 0u64..u64::MAX), 0..700),
        probes in proptest::collection::vec((0u64..320, 0u64..320), 1..40),
    ) {
        // A stable sort keeps each key's values in generation order.
        pairs.sort_by_key(|&(k, _)| k);
        let mut model: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for &(k, v) in &pairs {
            model.entry(k).or_default().push(v);
        }
        let tree = BTree::bulk_load(Arc::new(Pager::in_memory(page_size, 4096)), pairs.clone())
            .unwrap();
        prop_assert_eq!(tree.len() as usize, pairs.len());

        for (a, b) in probes {
            // `a` and `b` need not be stored keys: absent bounds included.
            let want = model.get(&a).map(|vs| vs[0]);
            prop_assert_eq!(tree.get(a).unwrap(), want, "get({})", a);
            let (lo, hi) = (a.min(b), a.max(b));
            let got: Vec<(u64, u64)> = tree.range(lo, hi).unwrap().map(|r| r.unwrap()).collect();
            let want: Vec<(u64, u64)> = model
                .range(lo..=hi)
                .flat_map(|(&k, vs)| vs.iter().map(move |&v| (k, v)))
                .collect();
            prop_assert_eq!(got, want, "range({}, {})", lo, hi);
        }

        let got: Vec<(u64, u64)> = tree.scan_all().unwrap().map(|r| r.unwrap()).collect();
        prop_assert_eq!(got, pairs);
    }
}
