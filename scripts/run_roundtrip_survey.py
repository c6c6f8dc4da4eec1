#!/usr/bin/env python3
"""Survey the seeded random-model battery through the full pipeline.

For every seed the script validates the model, checks the kernel axioms on
the complete word table, reconstructs the minimal realization, compares
the reconstructed table with the original, and validates the emitted model
(its worst `check_model` residual is printed beside the round trip's).

The round trip's residual is the certified Gram-gap bound on a pass
(`linalg.gram_gap`); the worst block of the difference of the two tables
(`linalg.worst_gap`) is printed beside it as the reference, and the script
fails if the reference ever exceeds the bound, so drift in the bound's
rounding allowance shows.
"""

import argparse
import time

from qsproc import check_axioms, check_model, enumerate_words, linalg, verify_decomposition
from qsproc.fixtures import random_valid_model
from qsproc.reconstruct import reconstruct


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=20, help="number of seeded models")
    args = parser.parse_args()

    print(f"{'seed':>4} {'pts':>4} {'dim':>4} {'words':>6} {'rank':>5} "
          f"{'axioms':>7} {'roundtrip':>10} {'block':>9} {'emitted':>9} {'time':>6}")
    for seed in range(args.seeds):
        t0 = time.time()
        model, site = random_valid_model(seed)
        assert check_model(model, site).ok
        words = enumerate_words(site, model.spaces)
        oracle = model.kernel_table(site, words)
        axioms = check_axioms(oracle)
        recon = reconstruct(oracle)
        decomp = verify_decomposition(recon, oracle)
        emitted = check_model(recon.model, site)
        block, _ = linalg.worst_gap(
            oracle.table, linalg.pair_blocks(recon.model.evaluate(oracle.plan)))
        print(
            f"{seed:>4} {len(site.points):>4} {model.dim:>4} {len(words):>6} "
            f"{recon.rank:>5} {'ok' if axioms.ok else 'FAIL':>7} "
            f"{decomp.residual:>10.2e} {block:>9.2e} "
            f"{max(c.residual for c in emitted.checks):>9.2e} {time.time() - t0:>5.2f}s"
        )
        assert axioms.ok and decomp.ok and emitted.ok
        assert block <= decomp.residual, (seed, block, decomp.residual)


if __name__ == "__main__":
    main()
