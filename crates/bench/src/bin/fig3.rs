//! Figure 3 — groupings of star joins on the case-study queries. The panels and claims are [`ntga_bench::figure::fig3`].
fn main() -> std::process::ExitCode {
    ntga_bench::figure::main(ntga_bench::figure::fig3)
}
