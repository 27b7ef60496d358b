//! Media kernels: software triangle rasterization, image filters
//! (smooth/edges/median/dither/convert), and block motion estimation.

use super::Build;
use crate::data::DataGen;
use crate::{DATA2_BASE, DATA3_BASE, DATA_BASE};
use tinyisa::{regs::*, Asm, AsmError, Vm};

/// Which image filter the `ImageFilter` kernel applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FilterKind {
    /// 3x3 box blur (susan smoothing, tiff resampling).
    Smooth,
    /// Gradient magnitude + threshold (susan edges).
    Edges,
    /// 3x3 median via insertion sort (tiff median).
    Median,
    /// Serial error-diffusion dithering (tiff dither).
    Dither,
    /// USAN corner detection: count similar pixels in a 5x5 window and
    /// threshold (susan corners).
    Corners,
    /// Per-pixel format conversion with gamma table (tiff 2bw/2rgba).
    Convert,
}

/// mesa/ghostscript-class scanline rasterizer: per triangle, bounding box +
/// three integer edge functions per pixel; covered pixels optionally sample
/// a texture before the framebuffer store.
pub(crate) fn raster(
    size: u64,
    tris: u64,
    textured: bool,
    seed: u64,
    build: Build,
) -> Result<Vm, AsmError> {
    let mut a = Asm::new();
    a.li(S0, DATA_BASE as i64); // vertex buffer: 6 x i32 per triangle
    a.li(S1, DATA2_BASE as i64); // framebuffer (size x size bytes)
    if textured {
        a.li(S2, DATA3_BASE as i64); // texture (256 x 256 bytes)
    }
    a.li(S3, tris as i64);
    a.li(S4, size as i64);
    let outer = a.label();
    a.bind(outer);
    let (t_loop, y_loop, x_loop, skip_pixel) = (a.label(), a.label(), a.label(), a.label());
    a.li(S5, 0); // triangle index
    a.bind(t_loop);
    // Load the three vertices.
    a.li(T0, 24);
    a.mul(T0, S5, T0);
    a.add(T0, S0, T0);
    a.ld4(S6, T0, 0); // x0
    a.ld4(S7, T0, 4); // y0
    a.ld4(S8, T0, 8); // x1
    a.ld4(S9, T0, 12); // y1
    a.ld4(S10, T0, 16); // x2
    a.ld4(S11, T0, 20); // y2
    // Bounding box: iterate the full row span between min/max y, min/max x
    // computed with compare/branch chains.
    let (ymin_b, ymax_b, xmin_b, xmax_b) = (a.label(), a.label(), a.label(), a.label());
    a.mov(T1, S7);
    a.bge(S9, T1, ymin_b);
    a.mov(T1, S9);
    a.bind(ymin_b);
    a.bge(S11, T1, ymax_b);
    a.mov(T1, S11);
    a.bind(ymax_b); // T1 = ymin
    a.mov(T2, S7);
    a.bge(T2, S9, xmin_b);
    a.mov(T2, S9);
    a.bind(xmin_b);
    a.bge(T2, S11, xmax_b);
    a.mov(T2, S11);
    a.bind(xmax_b); // T2 = ymax
    a.mov(T9, T1); // y
    a.bind(y_loop);
    a.li(T0, 0); // x (scan the full width: simple but realistic fill loop)
    a.bind(x_loop);
    // Edge functions: e01 = (x1-x0)(y-y0) - (y1-y0)(x-x0), etc.
    let edge = |a: &mut Asm, x0: tinyisa::Reg, y0: tinyisa::Reg, x1: tinyisa::Reg, y1: tinyisa::Reg| {
        a.sub(T3, x1, x0);
        a.sub(T4, T9, y0);
        a.mul(T3, T3, T4);
        a.sub(T4, y1, y0);
        a.sub(T5, T0, x0);
        a.mul(T4, T4, T5);
        a.sub(T3, T3, T4); // edge value
    };
    edge(&mut a, S6, S7, S8, S9);
    a.blt(T3, ZERO, skip_pixel);
    edge(&mut a, S8, S9, S10, S11);
    a.blt(T3, ZERO, skip_pixel);
    edge(&mut a, S10, S11, S6, S7);
    a.blt(T3, ZERO, skip_pixel);
    // Covered: shade.
    if textured {
        a.andi(T6, T0, 255);
        a.andi(T7, T9, 255);
        a.slli(T7, T7, 8);
        a.add(T6, T6, T7);
        a.add(T6, S2, T6);
        a.ld1(T8, T6, 0);
    } else {
        a.addi(T8, S5, 1);
        a.andi(T8, T8, 255);
    }
    a.mul(T6, T9, S4);
    a.add(T6, T6, T0);
    a.add(T6, S1, T6);
    a.st1(T8, T6, 0);
    a.bind(skip_pixel);
    a.addi(T0, T0, 1);
    a.blt(T0, S4, x_loop);
    a.addi(T9, T9, 1);
    a.bge(T2, T9, y_loop);
    a.addi(S5, S5, 1);
    a.blt(S5, S3, t_loop);
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    for t in 0..tris {
        // Counter-clockwise-ish triangles inside the viewport.
        let base = DATA_BASE + t * 24;
        let cx = g.below(size - 16) + 8;
        let cy = g.below(size - 16) + 8;
        let r = g.below(12) + 3;
        let pts =
            [(cx, cy.saturating_sub(r)), (cx.saturating_sub(r), cy + r), (cx + r, cy + r)];
        for (i, (x, y)) in pts.iter().enumerate() {
            vm.mem_mut().write_le(base + i as u64 * 8, 4, *x);
            vm.mem_mut().write_le(base + i as u64 * 8 + 4, 4, *y);
        }
    }
    g.fill_image(vm.mem_mut(), DATA3_BASE, 256, 256);
    Ok(vm)
}

/// susan/tiff-class image filtering over a `w x h` grayscale image.
pub(crate) fn image_filter(
    w: u64,
    h: u64,
    kind: FilterKind,
    seed: u64,
    build: Build,
) -> Result<Vm, AsmError> {
    let mut a = Asm::new();
    a.li(S0, DATA_BASE as i64); // input image
    a.li(S1, DATA2_BASE as i64); // output image
    a.li(S2, w as i64);
    a.li(S3, h as i64);
    if matches!(kind, FilterKind::Median | FilterKind::Dither | FilterKind::Convert) {
        a.li(S4, DATA3_BASE as i64); // lookup table / error row
    }
    let outer = a.label();
    a.bind(outer);
    let (y_loop, x_loop) = (a.label(), a.label());
    a.li(T9, 1); // y
    a.bind(y_loop);
    a.mul(T8, T9, S2);
    a.add(T8, S0, T8); // row base
    a.li(T0, 1); // x
    a.bind(x_loop);
    a.add(T1, T8, T0); // &in[y][x]
    let row = w as i64;
    match kind {
        FilterKind::Smooth => {
            // Sum the 3x3 neighborhood, divide by 9.
            a.li(T2, 0);
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    a.ld1(T3, T1, dy * row + dx);
                    a.add(T2, T2, T3);
                }
            }
            a.li(T4, 9);
            a.div(T2, T2, T4);
        }
        FilterKind::Edges => {
            // |gx| + |gy| with Sobel-ish weights, then threshold.
            a.ld1(T2, T1, -1);
            a.ld1(T3, T1, 1);
            a.sub(T2, T3, T2); // gx
            a.ld1(T3, T1, -row);
            a.ld1(T4, T1, row);
            a.sub(T3, T4, T3); // gy
            let (ax, ay, thr) = (a.label(), a.label(), a.label());
            a.bge(T2, ZERO, ax);
            a.sub(T2, ZERO, T2);
            a.bind(ax);
            a.bge(T3, ZERO, ay);
            a.sub(T3, ZERO, T3);
            a.bind(ay);
            a.add(T2, T2, T3);
            a.slti(T4, T2, 40);
            a.beq(T4, ZERO, thr);
            a.li(T2, 0);
            a.bind(thr);
        }
        FilterKind::Median => {
            // Copy 9 neighbors to scratch, insertion sort, take element 4.
            let mut idx = 0i64;
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    a.ld1(T3, T1, dy * row + dx);
                    a.st1(T3, S4, idx);
                    idx += 1;
                }
            }
            let (si, sj, noswap, sj_end) = (a.label(), a.label(), a.label(), a.label());
            a.li(T2, 1); // i
            a.bind(si);
            a.li(T3, 0); // j
            a.bind(sj);
            a.bge(T3, T2, sj_end);
            a.add(T4, S4, T3);
            a.ld1(T5, T4, 0);
            a.add(T6, S4, T2);
            a.ld1(T7, T6, 0);
            a.bge(T7, T5, noswap);
            a.st1(T7, T4, 0);
            a.st1(T5, T6, 0);
            a.bind(noswap);
            a.addi(T3, T3, 1);
            a.jmp(sj);
            a.bind(sj_end);
            a.addi(T2, T2, 1);
            a.slti(T4, T2, 9);
            a.bne(T4, ZERO, si);
            a.ld1(T2, S4, 4);
        }
        FilterKind::Dither => {
            // 1-D error diffusion: out = (in + err >= 128) ? 255 : 0;
            // err = in + err - out, carried in a register via memory row.
            a.add(T4, S4, T0);
            a.ld1(T5, T4, 0); // err[x]
            a.ld1(T2, T1, 0);
            a.add(T2, T2, T5);
            let (white, done) = (a.label(), a.label());
            a.slti(T6, T2, 128);
            a.beq(T6, ZERO, white);
            a.st1(T2, T4, 1); // push error right
            a.li(T2, 0);
            a.jmp(done);
            a.bind(white);
            a.addi(T7, T2, -255);
            a.st1(T7, T4, 1);
            a.li(T2, 255);
            a.bind(done);
        }
        FilterKind::Corners => {
            // USAN: count 5x5 neighbors within +/- 20 of the nucleus.
            a.ld1(T2, T1, 0); // nucleus
            a.li(T3, 0); // similar count
            for dy in -2i64..=2 {
                for dx in -2i64..=2 {
                    if dy == 0 && dx == 0 {
                        continue;
                    }
                    let not_similar = a.label();
                    a.ld1(T4, T1, dy * row + dx);
                    a.sub(T4, T4, T2);
                    let non_neg = a.label();
                    a.bge(T4, ZERO, non_neg);
                    a.sub(T4, ZERO, T4);
                    a.bind(non_neg);
                    a.slti(T5, T4, 20);
                    a.beq(T5, ZERO, not_similar);
                    a.addi(T3, T3, 1);
                    a.bind(not_similar);
                }
            }
            // Corner response: strong when few neighbors are similar.
            let (corner, resp_done) = (a.label(), a.label());
            a.slti(T5, T3, 9); // geometric threshold ~3g/4 of 24
            a.bne(T5, ZERO, corner);
            a.li(T2, 0);
            a.jmp(resp_done);
            a.bind(corner);
            a.li(T4, 24);
            a.sub(T2, T4, T3);
            a.slli(T2, T2, 3);
            a.bind(resp_done);
        }
        FilterKind::Convert => {
            // Gamma-table lookup + channel replication arithmetic.
            a.ld1(T2, T1, 0);
            a.add(T3, S4, T2);
            a.ld1(T2, T3, 0);
            a.slli(T4, T2, 1);
            a.add(T4, T4, T2);
            a.srli(T2, T4, 2); // (3v)/4 luminance-ish
        }
    }
    // Store result.
    a.mul(T5, T9, S2);
    a.add(T5, T5, T0);
    a.add(T5, S1, T5);
    a.st1(T2, T5, 0);
    a.addi(T0, T0, 1);
    a.addi(T6, S2, -1);
    a.blt(T0, T6, x_loop);
    a.addi(T9, T9, 1);
    a.addi(T6, S3, -1);
    a.blt(T9, T6, y_loop);
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    g.fill_image(vm.mem_mut(), DATA_BASE, w, h);
    // Gamma table for Convert.
    for i in 0..256u64 {
        let v = (255.0 * (i as f64 / 255.0).powf(0.45)) as u8;
        vm.mem_mut().write_u8(DATA3_BASE + i, v);
    }
    Ok(vm)
}

/// mpeg2-encode-class block motion estimation: for each 8x8 block, compute
/// the SAD against a +/- `range` search window in the reference frame and
/// keep the minimum.
pub(crate) fn motion_est(
    w: u64,
    h: u64,
    range: u64,
    seed: u64,
    build: Build,
) -> Result<Vm, AsmError> {
    let mut a = Asm::new();
    a.li(S0, DATA_BASE as i64); // current frame
    a.li(S1, DATA2_BASE as i64); // reference frame
    a.li(S2, DATA3_BASE as i64); // best-SAD output per block (u32)
    a.li(S3, (w / 8 - 1) as i64); // blocks per row (avoid edges)
    a.li(S4, (h / 8 - 1) as i64);
    a.li(S5, w as i64);
    a.li(S6, range as i64);
    let outer = a.label();
    a.bind(outer);
    let (by_l, bx_l, dy_l, dx_l, py_l, px_l, keep, neg) = (
        a.label(),
        a.label(),
        a.label(),
        a.label(),
        a.label(),
        a.label(),
        a.label(),
        a.label(),
    );
    a.li(S7, 1); // block y
    a.bind(by_l);
    a.li(S8, 1); // block x
    a.bind(bx_l);
    a.li(S9, 0x7fff_ffff); // best SAD
    a.sub(T9, ZERO, S6); // dy = -range
    a.bind(dy_l);
    a.sub(S10, ZERO, S6); // dx = -range
    a.bind(dx_l);
    // SAD over the 8x8 block.
    a.li(S11, 0); // sad
    a.li(T0, 0); // py
    a.bind(py_l);
    a.li(T1, 0); // px
    a.bind(px_l);
    // cur[(by*8+py)*w + bx*8+px]
    a.slli(T2, S7, 3);
    a.add(T2, T2, T0);
    a.mul(T2, T2, S5);
    a.slli(T3, S8, 3);
    a.add(T2, T2, T3);
    a.add(T2, T2, T1);
    a.add(T3, S0, T2);
    a.ld1(T4, T3, 0);
    // ref[... + dy*w + dx]
    a.mul(T5, T9, S5);
    a.add(T5, T5, S10);
    a.add(T5, T5, T2);
    a.add(T5, S1, T5);
    a.ld1(T6, T5, 0);
    a.sub(T7, T4, T6);
    a.bge(T7, ZERO, neg);
    a.sub(T7, ZERO, T7);
    a.bind(neg);
    a.add(S11, S11, T7);
    a.addi(T1, T1, 1);
    a.slti(T8, T1, 8);
    a.bne(T8, ZERO, px_l);
    a.addi(T0, T0, 1);
    a.slti(T8, T0, 8);
    a.bne(T8, ZERO, py_l);
    a.bge(S11, S9, keep);
    a.mov(S9, S11);
    a.bind(keep);
    a.addi(S10, S10, 1);
    a.bge(S6, S10, dx_l);
    a.addi(T9, T9, 1);
    a.bge(S6, T9, dy_l);
    // Store best SAD for this block.
    a.mul(T2, S7, S3);
    a.add(T2, T2, S8);
    a.slli(T2, T2, 2);
    a.add(T2, S2, T2);
    a.st4(S9, T2, 0);
    a.addi(S8, S8, 1);
    a.blt(S8, S3, bx_l);
    a.addi(S7, S7, 1);
    a.blt(S7, S4, by_l);
    a.jmp(outer);

    let mut vm = Vm::new(a.assemble()?);
    if build == Build::Program {
        return Ok(vm);
    }
    let mut g = DataGen::new(seed);
    g.fill_image(vm.mem_mut(), DATA_BASE, w, h);
    g.fill_image(vm.mem_mut(), DATA2_BASE, w, h);
    Ok(vm)
}

#[cfg(test)]
mod tests {
    use super::FilterKind;
    use crate::kernels::test_support::mix_of;
    use crate::kernels::Build;

    #[test]
    fn raster_fills_pixels() {
        let mix = mix_of(super::raster(128, 64, false, 1, Build::Full).unwrap(), 80_000);
        assert!(mix.int_mul > 0.05, "edge functions multiply: {}", mix.int_mul);
        assert!(mix.control > 0.1);
    }

    #[test]
    fn textured_raster_loads_texels() {
        let plain = mix_of(super::raster(128, 64, false, 1, Build::Full).unwrap(), 80_000);
        let tex = mix_of(super::raster(128, 64, true, 1, Build::Full).unwrap(), 80_000);
        assert!(tex.loads >= plain.loads, "texture sampling adds loads");
    }

    #[test]
    fn all_filters_run() {
        for kind in [
            FilterKind::Smooth,
            FilterKind::Edges,
            FilterKind::Median,
            FilterKind::Dither,
            FilterKind::Convert,
        ] {
            let mix = mix_of(super::image_filter(96, 96, kind, 2, Build::Full).unwrap(), 50_000);
            assert!(mix.loads > 0.05, "{kind:?}: loads {}", mix.loads);
        }
    }

    #[test]
    fn median_is_much_branchier_than_smooth() {
        let filter = |kind| super::image_filter(96, 96, kind, 2, Build::Full).unwrap();
        let smooth = mix_of(filter(FilterKind::Smooth), 50_000);
        let median = mix_of(filter(FilterKind::Median), 50_000);
        assert!(median.control > smooth.control + 0.05);
    }

    #[test]
    fn motion_est_is_sad_loop() {
        let mix = mix_of(super::motion_est(64, 64, 3, 3, Build::Full).unwrap(), 80_000);
        assert!(mix.loads > 0.07, "loads {}", mix.loads);
        assert!(mix.control > 0.1);
    }
    #[test]
    fn corners_filter_runs_and_is_branchy() {
        let mix = mix_of(
            super::image_filter(96, 96, FilterKind::Corners, 2, Build::Full).unwrap(),
            60_000,
        );
        assert!(mix.control > 0.15, "control {}", mix.control);
        assert!(mix.loads > 0.12, "5x5 window loads: {}", mix.loads);
    }

}
