//! Figure 11 — lazy full vs partial β-unnest on the last MR cycle. The panels and claims are [`ntga_bench::figure::fig11`].
fn main() -> std::process::ExitCode {
    ntga_bench::figure::main(ntga_bench::figure::fig11)
}
