"""Assembly of reproduced artifacts into a single report.

``collect_report`` walks a results directory (as written by
``pytest benchmarks/ --benchmark-only``) and emits one markdown document
ordered like the paper's evaluation section, with the paper's reference
values quoted next to each artifact for eyeball comparison.
"""

import pathlib
from typing import Dict, List, Optional

#: Display order and the paper's reference claims, per experiment id.
PAPER_REFERENCE: Dict[str, str] = {
    "fig2": "Paper: 71% (INT) / 80% (FP) filtered with 1 register; "
            "95-98% with 8 quad-word-interleaved; line interleaving clearly worse.",
    "fig3": "Paper: even BF=1024 filters fewer searches than 1 YLA register.",
    "yla_energy": "Paper: 32.4% LQ energy savings, ~1.7% processor-wide, "
                  "no performance impact.",
    "fig4": "Paper: 95-97% LQ energy savings; ~0.3% average slowdown "
            "(worst 1.3% INT / 3.5% FP); net savings 3-8% growing config1->3.",
    "table2": "Paper: windows of ~33 instructions with ~10 loads "
              "(3.6-4.1 safe); 10% (INT) / 2.5% (FP) of cycles in checking "
              "mode; 57% / 63% single-store windows; 81% / 94% safe loads.",
    "table3": "Paper: 168 (INT) / 35 (FP) false replays per Minstr; "
              "address-match X dominates (65% INT); hashing only 11% / 26%.",
    "table4": "Paper: local windows 13-25% shorter (25.3 / 28.9 instructions).",
    "table5": "Paper: 134 (INT) / 23.7 (FP) false replays per Minstr; "
              "Y-column (merged windows) mitigated.",
    "fig5": "Paper: both variants well under 1% mean slowdown; local improves "
            "the worst case, especially FP.",
    "table6": "Paper: moderate degradation up to 10 inv/1000cyc; at 100, "
              "false replays ~5x and slowdown ~1.2-1.4%.",
    "safe_loads": "Paper: 81% (INT) / 94% (FP) safe loads; without the "
                  "detector false replays roughly double (INT).",
    "checking_queue": "Paper: a 2K-entry table is roughly equivalent to a "
                      "16-entry associative queue in replay rate.",
    "sq_filter": "Paper: ~20% of loads are older than every in-flight store "
                 "(this model's SQ rarely drains, so it sees less).",
    "ablation_table_size": "Extension: diminishing returns past ~2K entries "
                           "(hash conflicts are not the dominant cause).",
    "ablation_wrongpath": "Extension: wrong-path loads erode filtering "
                          "monotonically; the reset remedy bounds the loss.",
    "ablation_storesets": "Extension: store-set prediction barely matters at "
                          "SPEC violation rates (the paper's claim) but "
                          "suppresses engineered alias storms.",
    "related_work": "Section 7 quantified: DMDC beats Garg's age-hash table "
                    "(no filtering, wider entries, flush-from-store replays) "
                    "and avoids value-based checking's bandwidth cost.",
}


def collect_report(results_dir, title: str = "Reproduced evaluation") -> str:
    """Render all archived experiment tables as one markdown document."""
    results = pathlib.Path(results_dir)
    lines: List[str] = [f"# {title}", ""]
    missing: List[str] = []
    for exp_id, reference in PAPER_REFERENCE.items():
        path = results / f"{exp_id}.txt"
        lines.append(f"## {exp_id}")
        lines.append("")
        lines.append(f"> {reference}")
        lines.append("")
        if path.exists():
            lines.append("```")
            lines.append(path.read_text().rstrip())
            lines.append("```")
        else:
            missing.append(exp_id)
            lines.append("*(not yet measured — run `pytest benchmarks/ "
                         "--benchmark-only`)*")
        lines.append("")
    if missing:
        lines.append(f"Missing artifacts: {', '.join(missing)}")
        lines.append("")
    return "\n".join(lines)


def write_report(results_dir, out_path: Optional[str] = None) -> str:
    """Write the collected report to ``out_path`` (default: stdout path)."""
    text = collect_report(results_dir)
    if out_path:
        pathlib.Path(out_path).write_text(text)
    return text

