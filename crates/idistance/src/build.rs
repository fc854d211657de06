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

use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;

use promips_cluster::{kmeans, KMeansConfig};
use promips_linalg::{dist, sq_norm2, Matrix};
use promips_storage::Pager;

use crate::config::IDistanceConfig;
use crate::head::{suffix_code, HeadBasis};
use crate::index::IDistanceIndex;
use crate::layout::RegionWriter;
use crate::meta::{OrigQuant, PartitionMeta, SubPartMeta};

/// Builds an [`IDistanceIndex`] over `proj` (n × m projected points) and
/// `orig` (n × d original points) inside `pager`.
///
/// The row order of `proj` and `orig` must agree: row `i` of both matrices
/// is the same logical point, whose id is `i`.
pub fn build_index(
    pager: Arc<Pager>,
    proj: &Matrix,
    orig: &Matrix,
    config: &IDistanceConfig,
) -> io::Result<IDistanceIndex> {
    assert_eq!(proj.rows(), orig.rows(), "proj/orig row mismatch");
    assert!(!proj.is_empty(), "cannot index an empty dataset");
    let n = proj.rows();
    let m = proj.cols();
    let d = orig.cols();

    // The verification codes' head basis, if the rows have one. Estimated
    // before anything else is allocated: its sample matrices are the
    // build's largest transients after the inputs, and freed here they do
    // not add to its peak.
    let head = config
        .verify_quantize
        .then(|| HeadBasis::estimate(orig, config.seed))
        .flatten();

    // --- Stage 1: kp-means over the projected points. --------------------
    let all: Vec<usize> = (0..n).collect();
    let mut km_cfg = KMeansConfig::new(config.kp, config.seed);
    km_cfg.max_iters = config.kmeans_iters;
    let stage1 = kmeans(proj, &all, &km_cfg);
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

    // Ring index of every point; C must exceed every ring index so partition
    // key ranges never overlap (standard iDistance requirement).
    let mut rings = vec![0u64; n];
    let mut max_ring = 0u64;
    for (pos, &row) in all.iter().enumerate() {
        let part = stage1.assignment[pos] as usize;
        let dc = dist(proj.row(row), &partitions[part].center);
        let ring = (dc / epsilon).floor() as u64;
        rings[row] = ring;
        max_ring = max_ring.max(ring);
    }
    let ring_c = max_ring + 2;

    // --- Group by (partition, ring); BTreeMap gives key-sorted layout. ---
    let mut groups: BTreeMap<(usize, u64), Vec<usize>> = BTreeMap::new();
    for (pos, &row) in all.iter().enumerate() {
        let part = stage1.assignment[pos] as usize;
        groups.entry((part, rings[row])).or_default().push(row);
    }

    // --- Stage 2: per-ring ksp-means. -------------------------------------
    // First pass assembles the sub-partition definitions (in key order);
    // the second pass lays them out as two *packed* regions — all projected
    // records, then all original records — so adjacent sub-partitions share
    // pages (the paper's sequential-disk organization).
    struct SubDef {
        key: u64,
        pivot: Vec<f32>,
        radius: f64,
        ids: Vec<usize>,
    }
    let mut defs: Vec<SubDef> = Vec::new();
    let mut sub_seed = config.seed ^ 0x5EED_5EED;
    for (&(part, ring), members) in &groups {
        sub_seed = sub_seed.wrapping_add(0x9E37_79B9);
        // Cap the sub-partition count so thin rings are not shattered into
        // singleton sub-partitions: each sub-partition should hold enough
        // points to fill its disk pages (the µ-selectivity intent of the
        // paper's parameter analysis).
        let ksp = config.ksp.min(members.len().div_ceil(16)).max(1);
        let mut km2 = KMeansConfig::new(ksp, sub_seed);
        km2.max_iters = config.kmeans_iters;
        let stage2 = kmeans(proj, members, &km2);
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

    // --- Packed projected region. ------------------------------------------
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

    // --- Packed original region. -------------------------------------------
    let mut orig_offs = Vec::with_capacity(defs.len());
    let mut writer = RegionWriter::new(&pager);
    for def in &defs {
        orig_offs.push(writer.position());
        for &id in &def.ids {
            writer.append_f32s(orig.row(id))?;
        }
    }
    let orig_region = writer.finish()?;

    // --- Packed SQ8 verification-quant region. ------------------------------
    // The original rows scalar-quantized to u8 codes ([`sq8_encode`]): one
    // affine quantizer per sub-partition, one code row per record in
    // original-region order. When the rows' energy sits in few directions
    // the coded row is the `h`-dim head `Vo` ([`HeadBasis`]), else the
    // d-dim row itself. The screen needs the bounds of [`OrigQuant`] per
    // sub-partition — max ‖x − x̂‖, max ‖x̂‖ over the coded rows `x`, and for
    // a head max ‖o − Vᵀ(Vo)‖ and the largest norm of a head's suffix. Heads
    // are projected one sub-partition at a time, as one blocked `rows · Vᵀ`:
    // the only transients are that sub-partition's rows and heads. A head's
    // codes are three columns ([`IDistanceIndex`]'s layout): every row's
    // prefix, every row's suffix, then every row's suffix-norm code
    // ([`suffix_code`], from the heads already projected). The prefixes
    // stream out as they are coded; the suffixes and the norm codes wait in
    // memory — `h/2 + 1` bytes a row — and follow them.
    let mut vquants: Vec<OrigQuant> = Vec::new();
    let mut code_region = None;
    if config.verify_quantize {
        let mut codes: Vec<u8> = Vec::new();
        vquants.reserve(defs.len());
        let mut writer = RegionWriter::new(&pager);
        let mut suffixes = Vec::with_capacity(
            head.as_ref()
                .map_or(0, |basis| n * (basis.width() - basis.prefix_width())),
        );
        let mut norm_codes = Vec::with_capacity(if head.is_some() { n } else { 0 });
        for def in &defs {
            let rows = orig.gather(&def.ids);
            let (coded, bounds) = match &head {
                Some(basis) => basis.project_rows(&rows),
                None => (rows, [0.0; 2]),
            };
            let w = coded.cols();
            let q = sq8_encode(coded.as_slice(), w, &mut codes);
            // Rounded up into f32 like the bounds of `sq8_encode`.
            let [tail, suffix_norm] = bounds.map(|t| (t * (1.0 + 1e-6)) as f32);
            let off = match &head {
                Some(basis) => {
                    let p = basis.prefix_width();
                    let off = writer.position();
                    for (row, a) in codes.chunks_exact(w).zip(coded.iter_rows()) {
                        writer.append(&row[..p])?;
                        suffixes.extend_from_slice(&row[p..]);
                        norm_codes.push(suffix_code(sq_norm2(&a[p..]).sqrt(), suffix_norm));
                    }
                    off
                }
                None => writer.append(&codes)?,
            };
            vquants.push(OrigQuant {
                off,
                tail,
                suffix_norm,
                ..q
            });
        }
        // A page at a time, so the writer's buffer stays one run long.
        let ps = pager.page_size();
        for page in suffixes.chunks(ps).chain(norm_codes.chunks(ps)) {
            writer.append(page)?;
        }
        code_region = Some(writer.finish()?);
    }

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
        let idx = build_index(pager, &proj, &orig, &cfg).unwrap();

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
        let idx = build_index(pager, &proj, &orig, &cfg).unwrap();

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
        let idx = build_index(pager, &proj, &orig, &cfg).unwrap();
        assert_eq!(idx.len(), 20);
        let total: u64 = idx.subparts().iter().map(|s| s.count as u64).sum();
        assert_eq!(total, 20);
    }
}
