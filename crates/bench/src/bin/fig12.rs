//! Figure 12 — BSBM-1M analog, replication 2: B0–B6. The panels and claims are [`ntga_bench::figure::fig12`].
fn main() -> std::process::ExitCode {
    ntga_bench::figure::main(ntga_bench::figure::fig12)
}
