//! Directory metadata: partitions and sub-partitions, with a compact binary
//! codec so the directory itself lives in the paged file (it is part of the
//! paper's Index Size measurement).

use std::io;

use crate::layout::enc::*;

/// A first-stage partition: k-means center and covering radius in the
/// projected space.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionMeta {
    /// Cluster center `Oi` (m-dim, projected space).
    pub center: Vec<f32>,
    /// Max distance from a member point to `center`.
    pub radius: f64,
    /// Number of points in the partition.
    pub count: u64,
}

/// A sub-partition: one contiguous run of points on disk, filtered by a
/// pivot/radius sphere during range search. Its pivot (m-dim, projected
/// space) is a row of the directory's one flat pivot column
/// ([`crate::IDistanceIndex::pivot`]), encoded here beside the rest.
#[derive(Debug, Clone, PartialEq)]
pub struct SubPartMeta {
    /// Ring key of Formula 6 this sub-partition belongs to.
    pub key: u64,
    /// Max distance from a member to the pivot.
    pub radius: f64,
    /// Number of points.
    pub count: u32,
    /// Byte offset of this sub-partition's projected records inside the
    /// packed projected region (`count` records of `8 + 4m` bytes each:
    /// point id + projected vector).
    pub proj_off: u64,
    /// Byte offset of the original records inside the packed original
    /// region (`count` records of `4d` bytes, same order as projected).
    pub orig_off: u64,
}

/// Per-sub-partition SQ8 quantizer for **original** vectors: the
/// sub-partition's coded rows `x` — the original d-dim rows, or their
/// `h`-dim heads `Vo` when the index carries a [`crate::HeadBasis`] — are
/// scalar-quantized with one shared affine
/// (`code = round((x − min) / scale)`) and stored as a dense code column in
/// the verification-quant region, in the same record order as the original
/// region.
///
/// The bounds make the verification screen exact: for any member's coded
/// row `x` with dequantization `x̂`, Cauchy–Schwarz gives
/// `|⟨x, q⟩ − ⟨x̂, q̂⟩| ≤ err·‖q‖ + xnorm·‖q − q̂‖` (`q` in the coded space),
/// and `tail` bounds what a head leaves out of the original row (see
/// [`crate::head`]), so a candidate block whose quantized inner product
/// plus that padding still falls below the running k-th best can be skipped
/// without ever reading its f32 rows.
#[derive(Debug, Clone, PartialEq)]
pub struct OrigQuant {
    /// Byte offset of this sub-partition's code rows inside the packed
    /// verification-quant region's first column (`count` rows of
    /// [`crate::IDistanceIndex::prefix_width`] bytes each, same record
    /// order as the original region): the whole rows for full-width codes,
    /// the prefixes for heads, whose suffixes lie as far past the region's
    /// middle.
    pub off: u64,
    /// Quantization step (`> 0`; degenerate single-value sub-partitions
    /// store 1.0 with all codes 0).
    pub scale: f32,
    /// Quantization origin (the sub-partition's coordinate minimum).
    pub min: f32,
    /// Upper bound on any member's dequantization distance ‖x − x̂‖
    /// (rounded up when narrowed to f32).
    pub err: f32,
    /// Upper bound on any member's dequantized norm ‖x̂‖ (rounded up when
    /// narrowed to f32) — the factor multiplying the query's own
    /// quantization error in the screen bound.
    pub xnorm: f32,
    /// Upper bound on any member's residual `‖o − Vᵀ(Vo)‖` outside the head
    /// (rounded up when narrowed to f32); 0 for full-width codes. Stored
    /// with the head basis, not by [`Self::encode`]: a directory without a
    /// basis is byte for byte what it was before heads existed.
    pub tail: f32,
    /// Upper bound on any member's **suffix norm** `‖(Vo)_{h/2..h}‖`, the
    /// head coordinates past its prefix ([`crate::HeadBasis::prefix_width`]),
    /// stored and rounded like `tail`: the unit of the rows' suffix-norm
    /// codes ([`crate::head::suffix_code`]), which with `tail` bound what
    /// the prefix column leaves out; 0 for full-width codes.
    pub suffix_norm: f32,
}

impl OrigQuant {
    /// Serializes into `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.off);
        put_f32(buf, self.scale);
        put_f32(buf, self.min);
        put_f32(buf, self.err);
        put_f32(buf, self.xnorm);
    }

    /// Deserializes what [`Self::encode`] wrote.
    pub fn decode(r: &mut Reader) -> io::Result<Self> {
        Ok(Self {
            off: r.u64()?,
            scale: r.f32()?,
            min: r.f32()?,
            err: r.f32()?,
            xnorm: r.f32()?,
            tail: 0.0,
            suffix_norm: 0.0,
        })
    }
}

impl PartitionMeta {
    /// Serializes into `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.center.len() as u32);
        put_f32s(buf, &self.center);
        put_f64(buf, self.radius);
        put_u64(buf, self.count);
    }

    /// Deserializes what [`Self::encode`] wrote.
    pub fn decode(r: &mut Reader) -> io::Result<Self> {
        let m = r.u32()? as usize;
        Ok(Self {
            center: r.f32s(m)?,
            radius: r.f64()?,
            count: r.u64()?,
        })
    }
}

impl SubPartMeta {
    /// Serializes into `buf`, with its `pivot`.
    pub fn encode(&self, pivot: &[f32], buf: &mut Vec<u8>) {
        put_u64(buf, self.key);
        put_u32(buf, pivot.len() as u32);
        put_f32s(buf, pivot);
        put_f64(buf, self.radius);
        put_u32(buf, self.count);
        put_u64(buf, self.proj_off);
        put_u64(buf, self.orig_off);
    }

    /// Deserializes what [`Self::encode`] wrote, appending its pivot to
    /// `pivots`.
    pub fn decode(r: &mut Reader, pivots: &mut Vec<f32>) -> io::Result<Self> {
        let key = r.u64()?;
        let m = r.u32()? as usize;
        pivots.extend(r.f32s(m)?);
        Ok(Self {
            key,
            radius: r.f64()?,
            count: r.u32()?,
            proj_off: r.u64()?,
            orig_off: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_roundtrip() {
        let p = PartitionMeta {
            center: vec![1.0, -2.0, 3.5],
            radius: 7.25,
            count: 42,
        };
        let mut buf = Vec::new();
        p.encode(&mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(PartitionMeta::decode(&mut r).unwrap(), p);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn subpart_roundtrip() {
        let s = SubPartMeta {
            key: 99,
            radius: 1.125,
            count: 17,
            proj_off: 1234,
            orig_off: 5678,
        };
        let pivot = [0.5, -1.0, 2.0, 0.0, 3.25, 7.0];
        let mut buf = Vec::new();
        s.encode(&pivot, &mut buf);
        assert_eq!(buf.len(), 8 + 4 + 4 * 6 + 8 + 4 + 8 + 8);
        let (mut r, mut pivots) = (Reader::new(&buf), vec![9.0]);
        assert_eq!(SubPartMeta::decode(&mut r, &mut pivots).unwrap(), s);
        assert_eq!(r.remaining(), 0);
        assert_eq!(pivots[1..], pivot);
    }

    #[test]
    fn orig_quant_roundtrip() {
        let q = OrigQuant {
            off: 65536,
            scale: 0.0107,
            min: -2.5,
            err: 0.031,
            xnorm: 12.75,
            tail: 0.0,
            suffix_norm: 0.0,
        };
        let mut buf = Vec::new();
        q.encode(&mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(OrigQuant::decode(&mut r).unwrap(), q);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn sequence_roundtrip() {
        let mut buf = Vec::new();
        let parts: Vec<PartitionMeta> = (0..5)
            .map(|i| PartitionMeta {
                center: vec![i as f32; 4],
                radius: i as f64,
                count: i,
            })
            .collect();
        for p in &parts {
            p.encode(&mut buf);
        }
        let mut r = Reader::new(&buf);
        let decoded: Vec<PartitionMeta> = (0..5)
            .map(|_| PartitionMeta::decode(&mut r).unwrap())
            .collect();
        assert_eq!(decoded, parts);
    }
}
