//! Figure 13 — Bio2RDF-like queries A1–A6. The panels and claims are [`ntga_bench::figure::fig13`].
fn main() -> std::process::ExitCode {
    ntga_bench::figure::main(ntga_bench::figure::fig13)
}
