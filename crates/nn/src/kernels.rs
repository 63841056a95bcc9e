//! Cache-blocked, register-tiled GEMM kernels that read their operands in
//! place.
//!
//! One micro-kernel serves all three matrix-product shapes the encoder
//! needs (`A·B`, `Aᵀ·B`, `A·Bᵀ`); the shapes differ **only** in where the
//! kernel finds element `(i, p)` of the left operand and `(p, j)` of the
//! right one. Every operand is a strided view — a slice, the row stride
//! (`lda`, `ldb`, `ldc`) and the view's shape — so a caller can multiply
//! column blocks of a wider matrix (one attention head's columns of Q, or
//! its value mix written into its columns of the head concat) without
//! copying them out. The kernel accumulates every output element strictly
//! in ascending-`p` order with a single scalar chain per element that starts
//! from the output's current value — exactly the summation order of the
//! naive reference kernels — so blocked outputs are **bit-identical** to the
//! seed triple-loop kernels (pinned by `to_bits` differential tests here, in
//! `tensor.rs` and in `tests/proptests.rs`). Blocking changes *when* terms
//! are computed, never the order they are added.
//!
//! Structure (BLIS-style, sized for the ≤ 512² matrices this workspace
//! multiplies):
//!
//! * `p` (the shared dimension) is split into `KC`-deep blocks, processed
//!   in ascending order.
//! * The micro-kernel keeps an `MR×NR` = 8×16 accumulator tile in registers
//!   and reads full tiles of both operands where they sit: A through `MR`
//!   row pointers at stride `lda` (`NN`, `NT`) or as `MR`-wide slices at
//!   stride `lda` (`TN`, whose A is stored transposed), B as 16-wide row
//!   slices at stride `ldb` (`NN`, `TN`). The `NR`-wide inner loop is
//!   independent per lane, so the autovectorizer turns it into SIMD without
//!   any reassociation of the per-element sums.
//! * Only what cannot be read in place is packed into thread-local scratch,
//!   zero-padded to a full tile: a ragged last tile of A (fewer than `MR`
//!   rows), a ragged last panel of B (fewer than `NR` columns), and every
//!   panel of `NT`'s B, which is stored `m × k` and must be transposed to
//!   be read 16 columns at a time — each of its source rows is read
//!   contiguously once per panel. Padded lanes are computed but never
//!   stored.
//! * A product with one output row (the `[CLS]` row's products in the last
//!   encoder block) skips the 8-row tile, which would compute 7 rows of
//!   padding: its one-row kernel vectorizes over up to `4·NR` columns of
//!   B at once instead.
//!
//! [`gemm`] checks with `assert!` that every view fits its slice before any
//! pointer is formed, and each kernel re-checks the extreme element of its
//! own tile, so a short operand panics instead of reading out of bounds.
//!
//! Large products additionally split their output rows across the
//! [`ls_par`] pool; every row is still computed by exactly one worker with
//! the identical serial arithmetic, so parallel results stay bit-identical
//! at any thread count.

use std::cell::RefCell;

/// Micro-kernel tile height (rows of A / output per register tile).
pub const MR: usize = 8;
/// Micro-kernel tile width (columns of B / output per register tile).
pub const NR: usize = 16;
/// Depth of one `p`-block (sized so an `MR×KC` A-tile plus a `KC×NR`
/// B-panel stay L1-resident: `(8+16)·256·4 B = 24 KiB`).
const KC: usize = 256;
/// Below this many flops (`2·n·k·m`) the row-parallel split is not worth
/// its spawn cost and the kernel stays serial. Encoder-shape products
/// (≈ 1.2 Mflop) stay serial; a 256³ product (34 Mflop) goes parallel.
const PAR_MIN_FLOPS: usize = 1 << 24;

/// Which product shape a [`gemm`] call computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `out[n×m] = A[n×k] · B[k×m]`.
    NN,
    /// `out[n×m] = A[k×n]ᵀ · B[k×m]` (weight gradients).
    TN,
    /// `out[n×m] = A[n×k] · B[m×k]ᵀ` (input gradients).
    NT,
}

thread_local! {
    /// Per-thread packing scratch (ragged A tile, B panel), reused across
    /// calls.
    static PACK: RefCell<(Vec<f32>, Vec<f32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Elements a row-major `rows × cols` view at row stride `ld` spans from its
/// first element to its last; saturates, so an overflowing view can never
/// fit a slice.
fn span(rows: usize, cols: usize, ld: usize) -> usize {
    if rows == 0 || cols == 0 {
        0
    } else {
        (rows - 1).saturating_mul(ld).saturating_add(cols)
    }
}

/// Blocked GEMM on strided views: `out += op(A, B)`, where `out` is the
/// `n × m` view of `out` at row stride `ldc`, and A and B are the views of
/// `a` and `b` at row strides `lda` and `ldb` that [`Op`] describes (A is
/// stored `n × k`, or `k × n` for [`Op::TN`]; B is stored `k × m`, or
/// `m × k` for [`Op::NT`]). Each view starts at its slice's first element;
/// pass a subslice to start elsewhere. Elements of `out` outside its view
/// are left untouched.
///
/// `out` is expected zeroed, or holding a partial sum in the same
/// ascending-`p` chain. Splits output rows across the pool when the product
/// is large enough; otherwise runs serially on the calling thread.
///
/// # Panics
/// Panics if a row stride is smaller than its view's column count, or a
/// slice is too short to hold its view.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    op: Op,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    n: usize,
    k: usize,
    m: usize,
    out: &mut [f32],
    ldc: usize,
) {
    let (a_rows, a_cols) = match op {
        Op::NN | Op::NT => (n, k),
        Op::TN => (k, n),
    };
    let (b_rows, b_cols) = match op {
        Op::NN | Op::TN => (k, m),
        Op::NT => (m, k),
    };
    assert!(lda >= a_cols, "gemm: lda {lda} < A's {a_cols} columns");
    assert!(ldb >= b_cols, "gemm: ldb {ldb} < B's {b_cols} columns");
    assert!(ldc >= m, "gemm: ldc {ldc} < out's {m} columns");
    let a_span = span(a_rows, a_cols, lda);
    assert!(
        a.len() >= a_span,
        "gemm: A holds {} elements, its {a_rows}×{a_cols} view at stride {lda} spans {a_span}",
        a.len()
    );
    let b_span = span(b_rows, b_cols, ldb);
    assert!(
        b.len() >= b_span,
        "gemm: B holds {} elements, its {b_rows}×{b_cols} view at stride {ldb} spans {b_span}",
        b.len()
    );
    let out_span = span(n, m, ldc);
    assert!(
        out.len() >= out_span,
        "gemm: out holds {} elements, its {n}×{m} view at stride {ldc} spans {out_span}",
        out.len()
    );
    if n == 0 || m == 0 {
        return;
    }
    let out = &mut out[..out_span];
    let t0 = ls_obs::enabled().then(std::time::Instant::now);
    let flops = 2usize.saturating_mul(n).saturating_mul(k).saturating_mul(m);
    let workers = if ls_par::in_worker() {
        1
    } else {
        ls_par::threads()
    };
    if workers > 1 && flops >= PAR_MIN_FLOPS && n >= 2 * MR {
        // Static row split: chunk rows to an MR multiple so tile boundaries
        // and therefore per-element arithmetic are identical to serial.
        let rows_per = n.div_ceil(workers).div_ceil(MR) * MR;
        ls_par::par_chunks_mut(out, rows_per * ldc, |ci, out_rows| {
            let i0 = ci * rows_per;
            let rows = rows_per.min(n - i0);
            gemm_rows(op, a, lda, b, ldb, i0, rows, k, m, out_rows, ldc);
        });
    } else {
        gemm_rows(op, a, lda, b, ldb, 0, n, k, m, out, ldc);
    }
    if let Some(t0) = t0 {
        ls_obs::histogram("kernel.matmul").record(t0.elapsed().as_secs_f64());
        ls_obs::meter("kernel.flops").mark(flops as u64);
    }
}

/// A kernel operand read in place or from a packed buffer: element
/// `(i, p)` — row `i` of an A tile, or column `i` of a B panel — sits at
/// `data[off + i·rs + p·ps]`.
#[derive(Clone, Copy)]
struct Tile<'s> {
    data: &'s [f32],
    off: usize,
    rs: usize,
    ps: usize,
}

impl<'s> Tile<'s> {
    fn new(data: &'s [f32], off: usize, rs: usize, ps: usize) -> Self {
        Tile { data, off, rs, ps }
    }

    /// Whether elements `(i, p)` for every `i < width`, `p < kc` lie inside
    /// `data` (the last one is the farthest: both strides are
    /// non-negative). Saturating, so an overflowing offset reads as outside.
    fn covers(&self, width: usize, kc: usize) -> bool {
        width > 0
            && kc > 0
            && self
                .off
                .saturating_add((width - 1).saturating_mul(self.rs))
                .saturating_add((kc - 1).saturating_mul(self.ps))
                < self.data.len()
    }
}

/// Serial blocked GEMM over output rows `i0 .. i0 + rows` (row indices are
/// absolute in A; `out_rows` starts at output row `i0`, at row stride
/// `ldc`).
#[allow(clippy::too_many_arguments)]
fn gemm_rows(
    op: Op,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    i0: usize,
    rows: usize,
    k: usize,
    m: usize,
    out_rows: &mut [f32],
    ldc: usize,
) {
    if rows == 0 || k == 0 {
        return;
    }
    if rows == 1 {
        gemm_row(op, a, lda, b, ldb, i0, k, m, out_rows);
        return;
    }
    let tiles = rows.div_ceil(MR);
    let ragged_rows = rows - (tiles - 1) * MR;
    PACK.with(|cell| {
        let mut pack = cell.borrow_mut();
        let (apack, bpack) = &mut *pack;
        let kc_cap = KC.min(k);
        apack.resize(MR * kc_cap, 0.0);
        bpack.resize(kc_cap * NR, 0.0);
        let mut p0 = 0usize;
        while p0 < k {
            let kc = KC.min(k - p0);
            if ragged_rows < MR {
                pack_a(
                    op,
                    a,
                    lda,
                    i0 + (tiles - 1) * MR,
                    ragged_rows,
                    p0,
                    kc,
                    apack,
                );
            }
            let mut j0 = 0usize;
            while j0 < m {
                let nr_eff = NR.min(m - j0);
                let bt = if nr_eff == NR && op != Op::NT {
                    Tile::new(b, p0 * ldb + j0, 1, ldb)
                } else {
                    pack_b(op, b, ldb, p0, kc, j0, nr_eff, bpack);
                    Tile::new(bpack, 0, 1, NR)
                };
                for t in 0..tiles {
                    let (r, mr_eff) = (t * MR, MR.min(rows - t * MR));
                    // Three call sites with literal strides, so each inlined
                    // copy of the kernel knows its A layout at compile time.
                    if mr_eff < MR {
                        let at = Tile::new(apack, 0, 1, MR);
                        micro_kernel(at, bt, kc, out_rows, r, j0, ldc, mr_eff, nr_eff);
                    } else if op == Op::TN {
                        let at = Tile::new(a, p0 * lda + i0 + r, 1, lda);
                        micro_kernel(at, bt, kc, out_rows, r, j0, ldc, MR, nr_eff);
                    } else {
                        let at = Tile::new(a, (i0 + r) * lda + p0, lda, 1);
                        micro_kernel(at, bt, kc, out_rows, r, j0, ldc, MR, nr_eff);
                    }
                }
                j0 += NR;
            }
            p0 += kc;
        }
    });
}

/// The one-row product: output row `i` (absolute in A) into `out`, which
/// starts at that row. Full column blocks of B are read in place, `4·NR`
/// columns at a time while they last, then `NR`; a ragged last panel and
/// every panel of [`Op::NT`]'s B go through a packed, zero-padded panel.
#[allow(clippy::too_many_arguments)]
fn gemm_row(
    op: Op,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    i: usize,
    k: usize,
    m: usize,
    out: &mut [f32],
) {
    let at = match op {
        Op::NN | Op::NT => Tile::new(a, i * lda, 0, 1),
        Op::TN => Tile::new(a, i, 0, lda),
    };
    let in_place = |j0| Tile::new(b, j0, 1, ldb);
    let mut j0 = 0usize;
    if op != Op::NT {
        while m - j0 >= 4 * NR {
            row_kernel::<{ 4 * NR }>(at, in_place(j0), k, &mut out[j0..], 4 * NR);
            j0 += 4 * NR;
        }
        while m - j0 >= NR {
            row_kernel::<NR>(at, in_place(j0), k, &mut out[j0..], NR);
            j0 += NR;
        }
    }
    if j0 == m {
        return;
    }
    PACK.with(|cell| {
        let bpack = &mut cell.borrow_mut().1;
        bpack.resize(k * NR, 0.0);
        while j0 < m {
            let nr_eff = NR.min(m - j0);
            pack_b(op, b, ldb, 0, k, j0, nr_eff, bpack);
            row_kernel::<NR>(at, Tile::new(bpack, 0, 1, NR), k, &mut out[j0..], nr_eff);
            j0 += NR;
        }
    });
}

/// Pack the ragged `mr_eff`-row tile of the (virtual) left operand that
/// starts at row `i0`, `p`-major: `apack[p·MR + ii] = Aᵒᵖ[i0 + ii][p0 + p]`,
/// rows past the edge zero-filled.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    op: Op,
    a: &[f32],
    lda: usize,
    i0: usize,
    mr_eff: usize,
    p0: usize,
    kc: usize,
    apack: &mut [f32],
) {
    let tile = &mut apack[..MR * kc];
    tile.fill(0.0);
    match op {
        // A is stored n×k; virtual row = actual row.
        Op::NN | Op::NT => {
            for ii in 0..mr_eff {
                let row = &a[(i0 + ii) * lda + p0..][..kc];
                for (p, &v) in row.iter().enumerate() {
                    tile[p * MR + ii] = v;
                }
            }
        }
        // A is stored k×n; virtual row i is column i of A, so each packed
        // p-slice is a contiguous read of A's row p0+p.
        Op::TN => {
            for p in 0..kc {
                let src = &a[(p0 + p) * lda + i0..][..mr_eff];
                tile[p * MR..p * MR + mr_eff].copy_from_slice(src);
            }
        }
    }
}

/// Pack one `NR`-column panel of the (virtual) right operand, `p`-major:
/// `bpack[p·NR + jj] = Bᵒᵖ[p0 + p][j0 + jj]`, columns past the edge
/// zero-filled.
#[allow(clippy::too_many_arguments)]
fn pack_b(
    op: Op,
    b: &[f32],
    ldb: usize,
    p0: usize,
    kc: usize,
    j0: usize,
    nr_eff: usize,
    bpack: &mut [f32],
) {
    match op {
        // B is stored k×m: contiguous reads along each row.
        Op::NN | Op::TN => {
            for p in 0..kc {
                let src = &b[(p0 + p) * ldb + j0..][..nr_eff];
                let dst = &mut bpack[p * NR..p * NR + NR];
                dst[..nr_eff].copy_from_slice(src);
                dst[nr_eff..].fill(0.0);
            }
        }
        // B is stored m×k and used transposed: read each of the panel's
        // source rows contiguously, scatter into the p-major panel. This is
        // the once-per-panel transpose that replaces the naive kernel's
        // per-dot column stride.
        Op::NT => {
            for jj in 0..NR {
                if jj < nr_eff {
                    let src = &b[(j0 + jj) * ldb + p0..][..kc];
                    for (p, &v) in src.iter().enumerate() {
                        bpack[p * NR + jj] = v;
                    }
                } else {
                    for p in 0..kc {
                        bpack[p * NR + jj] = 0.0;
                    }
                }
            }
        }
    }
}

/// The register tile: `acc[ii][jj] += Σ_p A(ii, p) · B(jj, p)` over `kc`
/// steps of `p`, loaded from and stored back to the output so successive
/// `p`-blocks chain into one ascending-`p` summation per element. The tile
/// is `MR` rows of `a` by `NR` columns of `b`; only its leading
/// `mr_eff × nr_eff` corner is loaded and stored, at row `row0`, column
/// `col0` of `out` (row stride `ldc`).
///
/// The accumulator is `MR` rows of `NR` lanes, each row moved in and out
/// of the tile only as a whole `[f32; NR]` value and indexed only by
/// constants in the hot loop, so LLVM keeps the whole tile in vector
/// registers rather than in memory it would have to prove the operand
/// reads cannot touch. Each lane is an independent mul-then-add chain,
/// which the autovectorizer widens to SIMD without reassociating any
/// per-element sum.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
// The lane loop indexes all eight rows with one `jj`; an iterator form
// obscures that the tile must stay register-resident.
#[allow(clippy::needless_range_loop)]
fn micro_kernel(
    a: Tile,
    b: Tile,
    kc: usize,
    out: &mut [f32],
    row0: usize,
    col0: usize,
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    assert!(
        a.covers(MR, kc) && b.covers(NR, kc),
        "gemm tile out of bounds"
    );
    let load = |ii: usize| {
        let mut row = [0.0f32; NR];
        if ii < mr_eff {
            let base = (row0 + ii) * ldc + col0;
            row[..nr_eff].copy_from_slice(&out[base..base + nr_eff]);
        }
        row
    };
    let mut acc = [
        load(0),
        load(1),
        load(2),
        load(3),
        load(4),
        load(5),
        load(6),
        load(7),
    ];
    // SAFETY: the `covers` assert above proves that `a.off + ii·a.rs +
    // p·a.ps` and `b.off + jj·b.rs + p·b.ps` are in bounds of `a.data` and
    // `b.data` for every ii < MR, jj < NR, p < kc — the only offsets read
    // below (`b.rs` is 1 at every call site).
    unsafe {
        let (ad, bd) = (a.data.as_ptr(), b.data.as_ptr());
        for p in 0..kc {
            let ao = a.off + p * a.ps;
            let bo = b.off + p * b.ps;
            let a0 = *ad.add(ao);
            let a1 = *ad.add(ao + a.rs);
            let a2 = *ad.add(ao + 2 * a.rs);
            let a3 = *ad.add(ao + 3 * a.rs);
            let a4 = *ad.add(ao + 4 * a.rs);
            let a5 = *ad.add(ao + 5 * a.rs);
            let a6 = *ad.add(ao + 6 * a.rs);
            let a7 = *ad.add(ao + 7 * a.rs);
            for jj in 0..NR {
                let b = *bd.add(bo + jj);
                acc[0][jj] += a0 * b;
                acc[1][jj] += a1 * b;
                acc[2][jj] += a2 * b;
                acc[3][jj] += a3 * b;
                acc[4][jj] += a4 * b;
                acc[5][jj] += a5 * b;
                acc[6][jj] += a6 * b;
                acc[7][jj] += a7 * b;
            }
        }
    }
    // Move the tile out whole; only the copy is indexed at run time.
    let rows: [[f32; NR]; MR] = acc;
    for (ii, row) in rows.iter().enumerate().take(mr_eff) {
        let base = (row0 + ii) * ldc + col0;
        out[base..base + nr_eff].copy_from_slice(&row[..nr_eff]);
    }
}

/// The one-row kernel: `acc[jj] += Σ_p A(0, p) · B(jj, p)` for a `W`-column
/// block of B, loaded from and stored back to `out[..w_eff]` (the rest of
/// the `W` lanes are computed but never stored). `W` fixed-width lanes, one
/// independent chain each, vectorize like the micro-kernel's rows; at
/// `W = 4·NR` their chains are independent enough to hide the add latency
/// that a single 16-lane row would wait on.
#[inline(always)]
fn row_kernel<const W: usize>(a: Tile, b: Tile, kc: usize, out: &mut [f32], w_eff: usize) {
    assert!(
        a.covers(1, kc) && b.covers(W, kc) && w_eff <= W,
        "gemm row out of bounds"
    );
    let mut acc = [0.0f32; W];
    acc[..w_eff].copy_from_slice(&out[..w_eff]);
    // SAFETY: the `covers` assert above proves that `a.off + p·a.ps` and
    // `b.off + jj·b.rs + p·b.ps` are in bounds of `a.data` and `b.data` for
    // every jj < W, p < kc — the only offsets read below (`b.rs` is 1 at
    // every call site).
    unsafe {
        let (ad, bd) = (a.data.as_ptr(), b.data.as_ptr());
        for p in 0..kc {
            let av = *ad.add(a.off + p * a.ps);
            let bo = b.off + p * b.ps;
            for (jj, acc) in acc.iter_mut().enumerate() {
                *acc += av * *bd.add(bo + jj);
            }
        }
    }
    out[..w_eff].copy_from_slice(&acc[..w_eff]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(n: usize, seed: u32) -> Vec<f32> {
        // Deterministic pseudo-random values spanning signs and magnitudes.
        (0..n)
            .map(|i| {
                let h = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
                ((h >> 8) as f32 / (1 << 24) as f32 - 0.5) * 4.0
            })
            .collect()
    }

    fn naive(op: Op, a: &[f32], b: &[f32], n: usize, k: usize, m: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; n * m];
        for i in 0..n {
            for j in 0..m {
                let mut acc = 0.0f32;
                for p in 0..k {
                    let (av, bv) = match op {
                        Op::NN => (a[i * k + p], b[p * m + j]),
                        Op::TN => (a[p * n + i], b[p * m + j]),
                        Op::NT => (a[i * k + p], b[j * k + p]),
                    };
                    acc += av * bv;
                }
                out[i * m + j] = acc;
            }
        }
        out
    }

    /// Stored `(rows, cols)` of A and B for a product shape.
    fn stored(op: Op, n: usize, k: usize, m: usize) -> ((usize, usize), (usize, usize)) {
        let a = match op {
            Op::NN | Op::NT => (n, k),
            Op::TN => (k, n),
        };
        let b = match op {
            Op::NN | Op::TN => (k, m),
            Op::NT => (m, k),
        };
        (a, b)
    }

    /// `gemm` on contiguous operands (natural strides).
    fn gemm_dense(op: Op, a: &[f32], b: &[f32], n: usize, k: usize, m: usize) -> Vec<f32> {
        let ((_, ac), (_, bc)) = stored(op, n, k, m);
        let mut out = vec![0.0f32; n * m];
        gemm(op, a, ac, b, bc, n, k, m, &mut out, m);
        out
    }

    #[test]
    fn blocked_matches_naive_bitwise_over_shapes() {
        // Shapes chosen to exercise every edge: one output row (the one-row
        // kernel: m below NR, past NR, past 4·NR), tiles smaller than
        // MR/NR, exact multiples, ragged edges, and multiple KC blocks
        // (k > 256).
        for &(n, k, m) in &[
            (1usize, 1usize, 1usize),
            (1, 48, 96),
            (1, 300, 83),
            (2, 3, 5),
            (4, 8, 8),
            (5, 7, 9),
            (13, 300, 17),
            (64, 48, 96),
            (33, 517, 29),
        ] {
            for op in [Op::NN, Op::TN, Op::NT] {
                let ((ar, ac), (br, bc)) = stored(op, n, k, m);
                let a = fill(ar * ac, 1);
                let b = fill(br * bc, 2);
                let want = naive(op, &a, &b, n, k, m);
                let got = gemm_dense(op, &a, &b, n, k, m);
                for (i, (x, y)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{op:?} {n}x{k}x{m} elem {i}: {x} vs {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn blocked_matches_naive_with_exact_zeros() {
        // ReLU-style sparsity: the seed kernels skip a == 0.0 terms; adding
        // the ±0.0 products instead must not change a single bit.
        for (n, k, m) in [(9, 11, 13), (1, 11, 40)] {
            let mut a = fill(n * k, 7);
            for (i, v) in a.iter_mut().enumerate() {
                if i % 3 == 0 {
                    *v = 0.0;
                }
                if i % 5 == 0 {
                    *v = -0.0;
                }
            }
            let b = fill(k * m, 8);
            for op in [Op::NN, Op::NT] {
                let want = naive(op, &a, &b, n, k, m);
                let got = gemm_dense(op, &a, &b, n, k, m);
                for (x, y) in got.iter().zip(&want) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }

    #[test]
    fn parallel_rows_bit_identical_to_serial() {
        // Big enough to cross PAR_MIN_FLOPS; compare 1 vs 4 workers.
        let (n, k, m) = (256, 128, 256);
        let a = fill(n * k, 3);
        let b = fill(k * m, 4);
        let serial = ls_par::with_threads(1, || gemm_dense(Op::NN, &a, &b, n, k, m));
        for t in [2, 4] {
            let par = ls_par::with_threads(t, || gemm_dense(Op::NN, &a, &b, n, k, m));
            for (x, y) in par.iter().zip(&serial) {
                assert_eq!(x.to_bits(), y.to_bits(), "threads={t}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "gemm: A holds")]
    fn short_a_panics() {
        let (a, b, mut out) = (vec![0.0; 4 * 3 - 1], vec![0.0; 3 * 5], vec![0.0; 4 * 5]);
        gemm(Op::NN, &a, 3, &b, 5, 4, 3, 5, &mut out, 5);
    }

    #[test]
    #[should_panic(expected = "gemm: B holds")]
    fn short_b_panics() {
        // Padded B: its last row needs only m of its ldb elements, but the
        // slice stops one short of that.
        let (a, b, mut out) = (vec![0.0; 4 * 3], vec![0.0; 2 * 7 + 4], vec![0.0; 4 * 5]);
        gemm(Op::NN, &a, 3, &b, 7, 4, 3, 5, &mut out, 5);
    }

    #[test]
    #[should_panic(expected = "gemm: out holds")]
    fn short_out_panics() {
        let (a, b, mut out) = (vec![0.0; 3], vec![0.0; 3 * 20], vec![0.0; 19]);
        gemm(Op::NN, &a, 3, &b, 20, 1, 3, 20, &mut out, 20);
    }

    #[test]
    #[should_panic(expected = "gemm: lda 2 < A's 3 columns")]
    fn stride_below_columns_panics() {
        let (a, b, mut out) = (vec![0.0; 64], vec![0.0; 64], vec![0.0; 64]);
        gemm(Op::NT, &a, 2, &b, 3, 4, 3, 5, &mut out, 5);
    }
}
