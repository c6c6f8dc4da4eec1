#!/usr/bin/env python3
"""Survey the seeded random-model battery through the full pipeline.

For every seed the script validates the model, checks the kernel axioms on
the complete word table, reconstructs the minimal realization, and compares
the reconstructed table with the original.
"""

import argparse
import time

from qsproc import check_axioms, check_model, enumerate_words, verify_decomposition
from qsproc.fixtures import random_valid_model
from qsproc.reconstruct import reconstruct


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=20, help="number of seeded models")
    args = parser.parse_args()

    print(f"{'seed':>4} {'pts':>4} {'dim':>4} {'words':>6} {'rank':>5} "
          f"{'axioms':>7} {'roundtrip':>10} {'time':>6}")
    for seed in range(args.seeds):
        t0 = time.time()
        model, site = random_valid_model(seed)
        assert check_model(model, site).ok
        words = enumerate_words(site, model.spaces)
        oracle = model.kernel_table(site, words)
        axioms = check_axioms(oracle)
        recon = reconstruct(oracle)
        decomp = verify_decomposition(recon, oracle)
        print(
            f"{seed:>4} {len(site.points):>4} {model.dim:>4} {len(words):>6} "
            f"{recon.rank:>5} {'ok' if axioms.ok else 'FAIL':>7} "
            f"{decomp.residual:>10.2e} {time.time() - t0:>5.2f}s"
        )
        assert axioms.ok and decomp.ok


if __name__ == "__main__":
    main()
