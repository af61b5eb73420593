//! Figure 14 — DBpedia-Infobox-like and BTC-09-like queries C1–C4. The panels and claims are [`ntga_bench::figure::fig14`].
fn main() -> std::process::ExitCode {
    ntga_bench::figure::main(ntga_bench::figure::fig14)
}
