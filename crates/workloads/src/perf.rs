//! Chip-level performance extraction and baseline comparison (Fig 18).

use crate::kernels::Kernel;
use crate::synthetic::{build, SyntheticOp};
use hyperap_baselines::gpu::GpuModel;
use hyperap_baselines::imp::ImpModel;
use hyperap_model::area::AreaModel;
use hyperap_model::metrics::Metrics;
use hyperap_model::tech::TechParams;

/// Measured chip-level metrics for a synthetic operation (RRAM Hyper-AP).
pub fn synthetic_metrics(op: SyntheticOp, width: usize) -> Metrics {
    synthetic_metrics_tech(op, width, hyperap_model::tech::Technology::Rram)
}

/// Measured chip-level metrics for either implementation technology —
/// the §VI-E RRAM-vs-CMOS comparison applied to the whole operation set.
pub fn synthetic_metrics_tech(
    op: SyntheticOp,
    width: usize,
    tech: hyperap_model::tech::Technology,
) -> Metrics {
    use hyperap_model::tech::Technology;
    let bench = build(op, width);
    let ops = bench.op_counts();
    let (params, area) = match tech {
        Technology::Rram => (TechParams::rram(), AreaModel::rram()),
        Technology::Cmos => (TechParams::cmos(), AreaModel::cmos()),
    };
    let mut m = Metrics::compute(&ops, &params, &area);
    // Fig 17 convention: Multi_Add counts three additions per pass.
    m.throughput_gops *= bench.ops_per_pass as f64;
    m.power_eff_gops_w *= bench.ops_per_pass as f64;
    m.area_eff_gops_mm2 *= bench.ops_per_pass as f64;
    m
}

/// One kernel's cross-system comparison (the Fig 18 rows).
#[derive(Debug, Clone)]
pub struct KernelComparison {
    /// Kernel name.
    pub name: &'static str,
    /// Elements processed.
    pub n: u64,
    /// Hyper-AP time (seconds) and energy (joules), measured from the
    /// compiled kernel's operation counts.
    pub hyper_time_s: f64,
    /// Hyper-AP energy in joules.
    pub hyper_energy_j: f64,
    /// IMP analytical time/energy.
    pub imp_time_s: f64,
    /// IMP energy.
    pub imp_energy_j: f64,
    /// GPU roofline time/energy.
    pub gpu_time_s: f64,
    /// GPU energy.
    pub gpu_energy_j: f64,
}

impl KernelComparison {
    /// Hyper-AP speedup over IMP.
    pub fn speedup_vs_imp(&self) -> f64 {
        self.imp_time_s / self.hyper_time_s
    }

    /// IMP energy over Hyper-AP energy (the Fig 18 "energy reduction").
    pub fn energy_reduction_vs_imp(&self) -> f64 {
        self.imp_energy_j / self.hyper_energy_j
    }

    /// Hyper-AP speedup over the GPU.
    pub fn speedup_vs_gpu(&self) -> f64 {
        self.gpu_time_s / self.hyper_time_s
    }
}

/// Compare one kernel across the three systems for `n` elements.
pub fn compare_kernel(kernel: &Kernel, n: u64) -> KernelComparison {
    let compiled = kernel.compile();
    let ops = compiled.op_counts();
    let tech = TechParams::rram();
    let area = AreaModel::rram();
    let slots = area.simd_slots();
    let passes = (n as f64 / slots as f64).ceil();

    // Per-pass latency plus local-interface transfer cost (the §IV-B
    // neighbor path: ~20 cycles per bit column; a word transfer moves the
    // element width in bit columns, conservatively 32).
    let transfer_cycles = kernel.transfers * 32.0 * 20.0;
    let pass_s = (ops.cycles(&tech) as f64 + transfer_cycles) * tech.clock_period_ns() * 1e-9;
    let hyper_time_s = passes * pass_s;
    // Only occupied PEs switch (dynamic energy); leakage is charged for the
    // whole chip for the run's duration.
    let active_pes = ((n as f64 / 256.0).ceil()).min(area.pe_count() as f64 * passes);
    let pe_energy_pj = ops.energy_pj_per_pe(&tech);
    let hyper_energy_j = pe_energy_pj * 1e-12 * active_pes
        + tech.p_static_mw * 1e-3 * area.pe_count() as f64 * hyper_time_s;

    let kops = kernel.kernel_ops(&compiled);
    let imp = ImpModel::default();
    let gpu = GpuModel::default();
    KernelComparison {
        name: kernel.name,
        n,
        hyper_time_s,
        hyper_energy_j,
        imp_time_s: imp.kernel_time_s(&kops, n),
        imp_energy_j: imp.kernel_energy_j(&kops, n),
        gpu_time_s: gpu.kernel_time_s(&kops, n),
        gpu_energy_j: gpu.kernel_energy_j(&kops, n),
    }
}

/// Geometric mean of an iterator of positive values.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::all_kernels;
    use hyperap_baselines::reference::{record, OpKind, FIG15_IMP};

    #[test]
    fn hyper_ap_beats_imp_on_every_synthetic_op() {
        // The Fig 15 "who wins": Hyper-AP must beat IMP on latency for all
        // five operations at 32 bits.
        for op in [
            OpKind::Add,
            OpKind::Mul,
            OpKind::Div,
            OpKind::Sqrt,
            OpKind::Exp,
        ] {
            let m = synthetic_metrics(op, 32);
            let imp = record(&FIG15_IMP, op).unwrap();
            assert!(
                m.latency_ns < imp.latency_ns,
                "{op}: measured {} vs IMP {}",
                m.latency_ns,
                imp.latency_ns
            );
        }
    }

    #[test]
    fn kernels_beat_imp_on_average() {
        // Fig 18 headline: 3.3× speedup and 23.8× energy reduction on
        // average; the shape requirement is ≥ 1 on the geometric mean.
        let n = 1024 * 1024;
        let comps: Vec<KernelComparison> =
            all_kernels().iter().map(|k| compare_kernel(k, n)).collect();
        let speedup = geomean(comps.iter().map(|c| c.speedup_vs_imp()));
        let energy = geomean(comps.iter().map(|c| c.energy_reduction_vs_imp()));
        assert!(speedup > 1.0, "mean speedup {speedup:.2}");
        assert!(energy > 1.0, "mean energy reduction {energy:.2}");
    }

    #[test]
    fn cmos_hyper_ap_trades_latency_for_throughput() {
        // §VI-E / Fig 19a: CMOS Hyper-AP has lower latency (single-cycle
        // writes) but far lower throughput (TCAM density: fewer slots).
        use hyperap_model::tech::Technology;
        for op in [OpKind::Add, OpKind::Div] {
            let rram = synthetic_metrics_tech(op, 32, Technology::Rram);
            let cmos = synthetic_metrics_tech(op, 32, Technology::Cmos);
            assert!(cmos.latency_ns < rram.latency_ns, "{op} latency");
            assert!(
                cmos.throughput_gops < rram.throughput_gops,
                "{op} throughput"
            );
        }
    }

    #[test]
    fn precision_sweep_is_monotone() {
        // §VI-C: reducing precision monotonically increases throughput.
        for op in [OpKind::Add, OpKind::Mul] {
            let t8 = synthetic_metrics(op, 8).throughput_gops;
            let t16 = synthetic_metrics(op, 16).throughput_gops;
            let t32 = synthetic_metrics(op, 32).throughput_gops;
            assert!(t8 > t16 && t16 > t32, "{op}: {t8} {t16} {t32}");
        }
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(Vec::<f64>::new()), 0.0);
    }

    #[test]
    fn multi_add_counts_three_ops_per_pass() {
        let single = synthetic_metrics(OpKind::Add, 32);
        let multi = synthetic_metrics(OpKind::MultiAdd, 32);
        // Throughput per pass ratio must reflect the 3-ops convention.
        assert!(multi.latency_ns > single.latency_ns);
        assert!(multi.throughput_gops > single.throughput_gops * 0.5);
    }
}
