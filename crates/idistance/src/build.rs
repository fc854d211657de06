//! Index construction (Algorithm 4 of the paper).
//!
//! 1. Project-space `kp`-means → partitions;
//! 2. ring width `ε = r_avg / Nkey`; key `I(p) = ⌊i·C + dis(p,Oi)/ε⌋`;
//! 3. per-ring `ksp`-means → sub-partitions;
//! 4. sequential disk layout — every sub-partition's projected records,
//!    then every one's original records, then (with
//!    [`IDistanceConfig::verify_quantize`]) the SQ8 verification codes of
//!    the original rows;
//! 5. directory (sub-partitions in ring-key order: the annulus scan's
//!    index) + footer written into the same paged file.
//!
//! **Two cores.** Three steps share their items with the process's sweep
//! helper thread through [`sweep::map`]: step 1's Lloyd assignment blocks
//! (inside [`kmeans()`], which scores a column-major copy of the projected
//! rows eight to a vector; its seeding, update and radii stay on this
//! thread), step 3's (partition, ring) groups — each group's k-means runs
//! whole on the core that claimed it — and the SQ8 codes, a sub-partition
//! an item, which the helper computes while this thread writes the
//! projected and original regions (the caller's projection,
//! `Projection::project_all`, maps its row blocks the same way). The file
//! cannot tell: every item is a pure function of its inputs — a group's
//! k-means seed is a function of its place in key order — every f64 sum
//! keeps its order inside its item, the results come back in item order,
//! and the writes stay on this thread, in the order a one-core build makes
//! them. With the helper absent or owned by another caller (a query's
//! split sweep, another build) every item runs here.

use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;

use parking_lot::Mutex;
use promips_cluster::{kmeans, KMeansConfig};
use promips_linalg::{dist, sq_norm2, sweep, Matrix};
use promips_storage::Pager;

use crate::config::IDistanceConfig;
use crate::head::{suffix_code, HeadBasis};
use crate::index::IDistanceIndex;
use crate::layout::RegionWriter;
use crate::meta::{OrigQuant, PartitionMeta, SubPartMeta};

/// Builds an [`IDistanceIndex`] over `proj` (n × m projected points) and
/// `orig` (n × d original points) inside `pager`, its verification codes
/// (with [`IDistanceConfig::verify_quantize`]) coded under `head` — heads
/// `Vo` under a basis, the rows themselves under `None`. The basis is the
/// caller's ([`HeadBasis::estimate`]; a sharded index passes the one it
/// estimated for all its shards). Without the tier `head` is dropped.
///
/// The row order of `proj` and `orig` must agree: row `i` of both matrices
/// is the same logical point, whose id is `i`.
pub fn build_index(
    pager: Arc<Pager>,
    proj: &Matrix,
    orig: &Matrix,
    config: &IDistanceConfig,
    head: Option<HeadBasis>,
) -> io::Result<IDistanceIndex> {
    assert_eq!(proj.rows(), orig.rows(), "proj/orig row mismatch");
    assert!(!proj.is_empty(), "cannot index an empty dataset");
    let n = proj.rows();
    let m = proj.cols();
    let d = orig.cols();
    let head = head.filter(|_| config.verify_quantize);
    if let Some(basis) = &head {
        assert_eq!(basis.rows().cols(), d, "head basis/rows dimension mismatch");
    }

    // --- Stage 1: kp-means over the projected points. --------------------
    let mut km_cfg = KMeansConfig::new(config.kp, config.seed);
    km_cfg.max_iters = config.kmeans_iters;
    let stage1 = kmeans(proj, &(0..n).collect::<Vec<_>>(), &km_cfg);
    let kp = stage1.centroids.rows();

    let partitions: Vec<PartitionMeta> = (0..kp)
        .map(|i| PartitionMeta {
            center: stage1.centroids.row(i).to_vec(),
            radius: stage1.radii[i],
            count: stage1.sizes[i] as u64,
        })
        .collect();

    // --- Ring width ε from the average radius (paper Section VI). --------
    let r_avg = partitions.iter().map(|p| p.radius).sum::<f64>() / kp as f64;
    let mut epsilon = r_avg / config.nkey as f64;
    if epsilon <= 0.0 || epsilon.is_nan() {
        // Degenerate data (all points identical): any positive width works.
        epsilon = 1.0;
    }

    // --- Group by (partition, ring); BTreeMap gives key-sorted layout. ---
    // C must exceed every ring index so partition key ranges never overlap
    // (standard iDistance requirement).
    let mut groups: BTreeMap<(usize, u64), Vec<usize>> = BTreeMap::new();
    let mut max_ring = 0u64;
    for (row, &part) in stage1.assignment.iter().enumerate() {
        let part = part as usize;
        let ring = (dist(proj.row(row), &partitions[part].center) / epsilon).floor() as u64;
        max_ring = max_ring.max(ring);
        groups.entry((part, ring)).or_default().push(row);
    }
    let ring_c = max_ring + 2;
    drop(stage1);

    // --- Stage 2: per-ring ksp-means, a (partition, ring) group an item. --
    // Group `g`'s seed is the base seed stepped `g + 1` times, so its
    // clustering is a function of its members and its place in key order
    // alone, whichever core runs it. The sub-partition definitions come out
    // in key order; the layout below packs them into regions — all
    // projected records, then all original records — so adjacent
    // sub-partitions share pages (the paper's sequential-disk organization).
    struct SubDef {
        key: u64,
        pivot: Vec<f32>,
        radius: f64,
        ids: Vec<usize>,
    }
    let groups: Vec<_> = groups.into_iter().collect();
    let cluster = |g: usize| {
        let members = &groups[g].1;
        let seed =
            (config.seed ^ 0x5EED_5EED).wrapping_add((g as u64 + 1).wrapping_mul(0x9E37_79B9));
        // Cap the sub-partition count so thin rings are not shattered into
        // singleton sub-partitions: each sub-partition should hold enough
        // points to fill its disk pages (the µ-selectivity intent of the
        // paper's parameter analysis).
        let ksp = config.ksp.min(members.len().div_ceil(16)).max(1);
        let mut km2 = KMeansConfig::new(ksp, seed);
        km2.max_iters = config.kmeans_iters;
        kmeans(proj, members, &km2)
    };
    let stage2 = sweep::map(groups.len(), cluster, || ()).1;
    let mut defs: Vec<SubDef> = Vec::new();
    for (((part, ring), members), stage2) in groups.into_iter().zip(stage2) {
        let key = part as u64 * ring_c + ring;
        for (c, positions) in stage2.members().into_iter().enumerate() {
            if positions.is_empty() {
                continue;
            }
            // Sort members by point id: the original region then reads in
            // increasing-id order, keeping verification sequential.
            let mut ids: Vec<usize> = positions.iter().map(|&p| members[p]).collect();
            ids.sort_unstable();
            defs.push(SubDef {
                key,
                pivot: stage2.centroids.row(c).to_vec(),
                radius: stage2.radii[c],
                ids,
            });
        }
    }

    // --- SQ8 verification codes, a sub-partition an item. -----------------
    // The original rows scalar-quantized to u8 codes ([`sq8_code_rows`]):
    // one affine quantizer per sub-partition, one code row per record in
    // original-region order, heads `Vo` under a basis, else the d-dim rows
    // themselves. A head's codes are three columns ([`IDistanceIndex`]'s
    // layout): every row's prefix, every row's suffix, then every row's
    // suffix-norm code ([`suffix_code`], from the heads just projected);
    // full-width codes are the first column alone. Each sub-partition codes
    // into its own slices of the columns, allocated here: what the helper
    // allocates lives no longer than its item. The helper codes while this
    // thread writes the projected and original regions; then this thread
    // codes what is left.
    let (w, p) = head
        .as_ref()
        .map_or((d, d), |basis| (basis.width(), basis.prefix_width()));
    let coded = if config.verify_quantize { n } else { 0 };
    let mut prefixes = vec![0u8; coded * p];
    let mut suffixes = vec![0u8; coded * (w - p)];
    let mut norm_codes = vec![0u8; if head.is_some() { n } else { 0 }];
    let (mut prefix_rest, mut suffix_rest, mut norm_rest) =
        (&mut prefixes[..], &mut suffixes[..], &mut norm_codes[..]);
    let slots: Vec<_> = (defs.iter().filter(|_| config.verify_quantize))
        .map(|def| {
            let rows = def.ids.len();
            let norm_rows = if head.is_some() { rows } else { 0 };
            let pre = take_front(&mut prefix_rest, rows * p);
            let suf = take_front(&mut suffix_rest, rows * (w - p));
            Mutex::new(Some((pre, suf, take_front(&mut norm_rest, norm_rows))))
        })
        .collect();
    let code = |s: usize| {
        let (pre, suf, norms) = slots[s]
            .lock()
            .take()
            .expect("a sub-partition is coded once");
        let mut codes = Vec::new();
        let (quant, heads) = sq8_code_rows(&orig.gather(&defs[s].ids), head.as_ref(), &mut codes);
        for (i, row) in codes.chunks_exact(w.max(1)).enumerate() {
            pre[i * p..][..p].copy_from_slice(&row[..p]);
            suf[i * (w - p)..][..w - p].copy_from_slice(&row[p..]);
        }
        for (norm, a) in norms
            .iter_mut()
            .zip(heads.iter().flat_map(Matrix::iter_rows))
        {
            *norm = suffix_code(sq_norm2(&a[p..]).sqrt(), quant.suffix_norm);
        }
        quant
    };
    let write_records = || -> io::Result<_> {
        // --- Packed projected region. --------------------------------------
        let mut proj_offs = Vec::with_capacity(defs.len());
        let mut writer = RegionWriter::new(&pager);
        for def in &defs {
            proj_offs.push(writer.position());
            for &id in &def.ids {
                writer.append(&(id as u64).to_le_bytes())?;
                writer.append_f32s(proj.row(id))?;
            }
        }
        let proj_region = writer.finish()?;

        // --- Packed original region. ---------------------------------------
        let mut orig_offs = Vec::with_capacity(defs.len());
        let mut writer = RegionWriter::new(&pager);
        for def in &defs {
            orig_offs.push(writer.position());
            for &id in &def.ids {
                writer.append_f32s(orig.row(id))?;
            }
        }
        Ok((proj_offs, proj_region, orig_offs, writer.finish()?))
    };
    let (records, quants) = sweep::map(slots.len(), code, write_records);
    let (proj_offs, proj_region, orig_offs, orig_region) = records?;
    drop(slots);

    // --- Packed SQ8 verification-code region: the columns in order. -------
    let mut vquants: Vec<OrigQuant> = Vec::with_capacity(quants.len());
    let mut code_region = None;
    if config.verify_quantize {
        let mut off = 0;
        for (def, quant) in defs.iter().zip(quants) {
            vquants.push(OrigQuant { off, ..quant });
            off += (def.ids.len() * p) as u64;
        }
        // A page at a time, so the writer's buffer stays one run long.
        let ps = pager.page_size();
        let mut writer = RegionWriter::new(&pager);
        for page in prefixes
            .chunks(ps)
            .chain(suffixes.chunks(ps))
            .chain(norm_codes.chunks(ps))
        {
            writer.append(page)?;
        }
        code_region = Some(writer.finish()?);
    }
    drop((prefixes, suffixes, norm_codes));

    let mut subparts: Vec<SubPartMeta> = Vec::with_capacity(defs.len());
    let mut pivots = Vec::with_capacity(defs.len() * m);
    for (i, def) in defs.iter().enumerate() {
        pivots.extend_from_slice(&def.pivot);
        subparts.push(SubPartMeta {
            key: def.key,
            radius: def.radius,
            count: def.ids.len() as u32,
            proj_off: proj_offs[i],
            orig_off: orig_offs[i],
        });
    }

    // Keys arrive sorted because BTreeMap iterates (partition, ring) in
    // ascending order and key = part·C + ring is monotone in that order;
    // the annulus scan binary-searches them.
    assert!(
        subparts.windows(2).all(|w| w[0].key <= w[1].key),
        "sub-partition keys out of order"
    );

    let index = IDistanceIndex::assemble(
        pager,
        m,
        d,
        epsilon,
        ring_c,
        proj_region,
        orig_region,
        code_region,
        partitions,
        subparts,
        pivots,
        vquants,
        head,
        n as u64,
    );
    index.write_footer()?;
    Ok(index)
}

/// Splits the first `len` bytes off `column`, leaving it the rest.
fn take_front<'a>(column: &mut &'a mut [u8], len: usize) -> &'a mut [u8] {
    let (front, rest) = std::mem::take(column).split_at_mut(len);
    *column = rest;
    front
}

/// Codes the rows of one quantizer — a sub-partition of a build, a sealed
/// chunk of a shard's delta — into `codes` (cleared first): under `head`
/// the heads `Vo` of [`HeadBasis::project_rows`], `h` bytes a row, else
/// the rows themselves, `d` bytes a row, by [`sq8_encode`]. Returns the
/// quantizer, with a head's `tail` (the largest residual bound) and
/// `suffix_norm` rounded up into f32 like the bounds of `sq8_encode` (0
/// without one), and the heads it coded.
pub fn sq8_code_rows(
    rows: &Matrix,
    head: Option<&HeadBasis>,
    codes: &mut Vec<u8>,
) -> (OrigQuant, Option<Matrix>) {
    let Some(basis) = head else {
        return (sq8_encode(rows.as_slice(), rows.cols(), codes), None);
    };
    let (heads, bounds) = basis.project_rows(rows);
    let q = sq8_encode(heads.as_slice(), heads.cols(), codes);
    let [tail, suffix_norm] = bounds.map(|t| (t * (1.0 + 1e-6)) as f32);
    let q = OrigQuant {
        tail,
        suffix_norm,
        ..q
    };
    (q, Some(heads))
}

/// Quantizes the `w`-float rows of `rows` to one u8 code per coordinate,
/// `code = round((x − min) / scale)` with `min` and `scale = (max − min) /
/// 255` taken over all of them, into `codes` (cleared first) — a
/// sub-partition's whole code column, ready for one region append.
/// Returns the quantizer and its `err` and `xnorm` bounds, computed in f64
/// from the codes as written and rounded up into f32 (1e-6 relative dwarfs
/// the f32 epsilon) so they stay upper bounds; `off`, `tail` and
/// `suffix_norm` are the caller's to fill.
pub fn sq8_encode(rows: &[f32], w: usize, codes: &mut Vec<u8>) -> OrigQuant {
    let mut lo = f32::INFINITY;
    let mut hi = f32::NEG_INFINITY;
    for &x in rows {
        lo = lo.min(x);
        hi = hi.max(x);
    }
    // Degenerate sub-partitions (single repeated value) quantize exactly
    // with any positive step: every code is 0, x̂ = min.
    let scale = if hi > lo { (hi - lo) / 255.0 } else { 1.0 };
    let inv_scale = 1.0 / scale;
    // `v.round().clamp(0.0, 255.0) as u8` without the libm call `round` is
    // on the baseline target: truncate (`as` saturates, NaN is 0), carry
    // when the fraction left — exact below 2²³, zero above — is at least a
    // half. A negative `v` lands at or below zero either way.
    codes.clear();
    codes.extend(rows.iter().map(|&x| {
        let v = (x - lo) * inv_scale;
        let whole = v as i32;
        let carry = i32::from(v - whole as f32 >= 0.5);
        whole.saturating_add(carry).clamp(0, 255) as u8
    }));
    let (lo64, scale64) = (lo as f64, scale as f64);
    let mut err_sq_max = 0.0f64;
    let mut xnorm_sq_max = 0.0f64;
    let w = w.max(1);
    for (row, codes) in rows.chunks_exact(w).zip(codes.chunks_exact(w)) {
        let mut err_sq = 0.0f64;
        let mut xnorm_sq = 0.0f64;
        for (&x, &code) in row.iter().zip(codes) {
            let xhat = lo64 + scale64 * code as f64;
            let e = x as f64 - xhat;
            err_sq += e * e;
            xnorm_sq += xhat * xhat;
        }
        err_sq_max = err_sq_max.max(err_sq);
        xnorm_sq_max = xnorm_sq_max.max(xnorm_sq);
    }
    OrigQuant {
        off: 0,
        scale,
        min: lo,
        err: (err_sq_max.sqrt() * (1.0 + 1e-6)) as f32,
        xnorm: (xnorm_sq_max.sqrt() * (1.0 + 1e-6)) as f32,
        tail: 0.0,
        suffix_norm: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use promips_stats::Xoshiro256pp;

    fn random_matrix(n: usize, d: usize, seed: u64) -> Matrix {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        Matrix::from_rows(
            d,
            (0..n).map(|_| (0..d).map(|_| rng.normal() as f32).collect()),
        )
    }

    #[test]
    fn build_covers_every_point_exactly_once() {
        let proj = random_matrix(500, 6, 1);
        let orig = random_matrix(500, 40, 2);
        let pager = Arc::new(Pager::in_memory(4096, 4096));
        let cfg = IDistanceConfig {
            kp: 3,
            nkey: 8,
            ksp: 3,
            ..Default::default()
        };
        let idx = build_index(pager, &proj, &orig, &cfg, None).unwrap();

        let total: u64 = idx.subparts().iter().map(|s| s.count as u64).sum();
        assert_eq!(total, 500);
        assert_eq!(idx.len(), 500);

        // Every id appears exactly once across sub-partition blobs.
        let mut seen = vec![false; 500];
        let mut scratch = crate::index::ProjScratch::new();
        for s in 0..idx.subparts().len() {
            idx.read_subpart_proj_into(s as u32, &mut scratch).unwrap();
            for &id in scratch.ids() {
                assert!(!seen[id as usize], "id {id} duplicated");
                seen[id as usize] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn keys_respect_formula_6() {
        let proj = random_matrix(300, 4, 3);
        let orig = random_matrix(300, 10, 4);
        let pager = Arc::new(Pager::in_memory(1024, 4096));
        let cfg = IDistanceConfig {
            kp: 4,
            nkey: 10,
            ksp: 2,
            ..Default::default()
        };
        let idx = build_index(pager, &proj, &orig, &cfg, None).unwrap();

        let mut scratch = crate::index::ProjScratch::new();
        for (sub, sp) in (0u32..).zip(idx.subparts()) {
            let part = (sp.key / idx.ring_c()) as usize;
            let ring = sp.key % idx.ring_c();
            assert!(part < idx.partitions().len());
            // Every member's ring index must equal the sub-partition ring.
            // (Reconstruct from the stored projected vectors.)
            idx.read_subpart_proj_into(sub, &mut scratch).unwrap();
            for i in 0..scratch.len() {
                let dc = dist(scratch.row(i), &idx.partitions()[part].center);
                assert_eq!((dc / idx.epsilon()).floor() as u64, ring);
            }
        }
    }

    #[test]
    fn degenerate_identical_points() {
        let proj = Matrix::from_rows(3, (0..20).map(|_| vec![1.0f32, 2.0, 3.0]));
        let orig = Matrix::from_rows(5, (0..20).map(|_| vec![0.5f32; 5]));
        let pager = Arc::new(Pager::in_memory(512, 1024));
        let cfg = IDistanceConfig {
            kp: 2,
            nkey: 4,
            ksp: 2,
            ..Default::default()
        };
        let idx = build_index(pager, &proj, &orig, &cfg, None).unwrap();
        assert_eq!(idx.len(), 20);
        let total: u64 = idx.subparts().iter().map(|s| s.count as u64).sum();
        assert_eq!(total, 20);
    }
}
