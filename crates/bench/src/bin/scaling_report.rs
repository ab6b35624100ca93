//! Strong-scaling report for distributed TSQR (fig8-style, DESIGN.md §11):
//! factors one tall-skinny matrix on clusters of P = 1, 2, 4, 8, 16
//! modelled devices joined by an alpha-beta interconnect, and emits the
//! modelled makespan with a communication/computation breakdown per P to
//! `BENCH_scaling.json` plus a human-readable table.
//!
//! `--quick` shrinks the matrix for the CI smoke run. `--check` gates the
//! run (exit 1 on failure): the distributed `R` and `Q` must be
//! bit-identical to the single-device host path `caqr_cpu` at P = 1 and
//! P = 4, and the modelled time must strictly improve P=1 → P=2 → P=4 —
//! the strong-scaling story the communication-avoiding tree exists to buy.

use caqr::distributed::{distributed_tsqr, DistOptions};
use caqr::multicore::{caqr_cpu, CpuCaqrOptions};
use caqr::{ReductionStrategy, TreeShape};
use caqr_bench::Table;
use gpu_sim::{Cluster, DeviceSpec, LinkSpec, Topology};

struct Entry {
    p: usize,
    makespan_s: f64,
    /// Busiest device's folded compute seconds (the critical path's
    /// compute share).
    compute_max_s: f64,
    /// Sum of compute seconds across devices (work, for efficiency).
    compute_total_s: f64,
    /// Total interconnect port-busy seconds.
    comm_s: f64,
    net_messages: u64,
    net_bytes: u64,
}

fn run(p: usize, m: usize, n: usize, tile: usize) -> (Entry, caqr::Factorization<f32>) {
    let cluster = Cluster::new(
        p,
        DeviceSpec::c2050(),
        LinkSpec::infiniband_qdr(),
        Topology::BinomialTree,
    );
    let a = dense::generate::uniform::<f32>(m, n, 7);
    let opts = DistOptions {
        tile_rows: tile,
        tree: TreeShape::DeviceArity,
        strategy: ReductionStrategy::RegisterSerialTransposed,
        verify_checksums: false,
    };
    let (f, _) = distributed_tsqr(&cluster, a, opts).expect("distributed TSQR");
    let totals = cluster.net_totals();
    let compute: Vec<f64> = (0..p).map(|d| cluster.compute_seconds(d)).collect();
    let e = Entry {
        p,
        makespan_s: cluster.makespan(),
        compute_max_s: compute.iter().cloned().fold(0.0, f64::max),
        compute_total_s: compute.iter().sum(),
        comm_s: totals.seconds,
        net_messages: totals.messages,
        net_bytes: totals.bytes,
    };
    (e, f)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let check = std::env::args().any(|a| a == "--check");
    let (m, n, tile) = if quick {
        (8192, 16, 64)
    } else {
        (65536, 32, 128)
    };

    let mut entries = Vec::new();
    let mut factors = Vec::new();
    for p in [1usize, 2, 4, 8, 16] {
        let (e, f) = run(p, m, n, tile);
        entries.push(e);
        factors.push((p, f));
    }
    let t1 = entries[0].makespan_s;

    let mut table = Table::new(&[
        "P",
        "time ms",
        "speedup",
        "eff %",
        "compute ms",
        "comm ms",
        "msgs",
        "KB",
    ]);
    for e in &entries {
        table.row(vec![
            e.p.to_string(),
            format!("{:.3}", e.makespan_s * 1e3),
            format!("{:.2}x", t1 / e.makespan_s),
            format!("{:.0}", 100.0 * t1 / (e.p as f64 * e.makespan_s)),
            format!("{:.3}", e.compute_max_s * 1e3),
            format!("{:.4}", e.comm_s * 1e3),
            e.net_messages.to_string(),
            format!("{:.1}", e.net_bytes as f64 / 1024.0),
        ]);
    }
    table.emit(&format!(
        "distributed TSQR strong scaling, {m} x {n} (tile {tile}), binomial-tree InfiniBand QDR"
    ));

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"scaling\",\n");
    json.push_str(&format!(
        "  \"shape\": {{\"m\": {m}, \"n\": {n}, \"tile_rows\": {tile}}},\n"
    ));
    json.push_str("  \"link\": {\"name\": \"infiniband_qdr\", \"topology\": \"binomial_tree\"},\n");
    json.push_str("  \"results\": [\n");
    for (i, e) in entries.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"p\": {}, \"makespan_s\": {:.9}, \"speedup\": {:.4}, \"efficiency\": {:.4}, \"compute_max_s\": {:.9}, \"compute_total_s\": {:.9}, \"comm_s\": {:.9}, \"net_messages\": {}, \"net_bytes\": {}}}{}\n",
            e.p,
            e.makespan_s,
            t1 / e.makespan_s,
            t1 / (e.p as f64 * e.makespan_s),
            e.compute_max_s,
            e.compute_total_s,
            e.comm_s,
            e.net_messages,
            e.net_bytes,
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_scaling.json", &json).expect("write BENCH_scaling.json");
    eprintln!("wrote BENCH_scaling.json ({} device counts)", entries.len());

    if check {
        let mut failed = false;
        // Gate 1: bit-identity against the single-device host path at
        // P = 1 and P = 4 (R and the full skinny Q).
        let reference = caqr_cpu(
            dense::generate::uniform::<f32>(m, n, 7),
            CpuCaqrOptions {
                tile_rows: tile,
                panel_width: n,
                tree: TreeShape::DeviceArity,
                verify_checksums: false,
            },
        )
        .expect("host path factors");
        let (r_ref, q_ref) = (reference.r(), reference.generate_q(n).expect("host Q"));
        for (p, f) in factors.iter().filter(|(p, _)| *p == 1 || *p == 4) {
            if f.r() != r_ref {
                eprintln!("FAIL: P={p} R diverges from the single-device host path");
                failed = true;
            }
            if f.generate_q(n).expect("distributed Q") != q_ref {
                eprintln!("FAIL: P={p} Q diverges from the single-device host path");
                failed = true;
            }
        }
        // Gate 2: modelled strong scaling must be monotone through P = 4.
        for w in entries[..3].windows(2) {
            if w[1].makespan_s >= w[0].makespan_s {
                eprintln!(
                    "FAIL: no speedup P={} -> P={} ({:.6} ms -> {:.6} ms)",
                    w[0].p,
                    w[1].p,
                    w[0].makespan_s * 1e3,
                    w[1].makespan_s * 1e3
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!("check: P=1/P=4 bit-identical to caqr_cpu; speedup monotone through P=4");
    }
}
