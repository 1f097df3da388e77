#!/usr/bin/env python3
"""Build the corpus, then certify every critical member with lambda <= k;
each certificate is verified by replay as it is built.

    python3 scripts/certify_corpus.py --out /tmp/corpus --seed 1
"""

import argparse
from pathlib import Path

from hyperchrome import classifier as cls
from hyperchrome import corpus as corp
from hyperchrome.hypercore import Hypergraph


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="corpus")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--count", type=int, default=20)
    ap.add_argument("--n-max", type=int, default=9)
    args = ap.parse_args()

    manifest = corp.build_corpus(args.seed, args.count, args.n_max, args.out)
    certified = skipped = 0
    for name, entry in sorted(manifest["entries"].items()):
        k_plus_1 = entry.get("critical_k")
        if k_plus_1 is None or k_plus_1 < 4:
            continue
        k = k_plus_1 - 1
        g = Hypergraph.from_hgr((Path(args.out) / f"{name}.hgr").read_text())
        # g is (k+1)-critical, so no certificate exists exactly when
        # lambda > k; a returned certificate has already passed its replay.
        cert = cls.hk_certificate(g, k)
        if cert is None:
            skipped += 1
            print(f"{name}: lambda > {k}, outside the certified class")
            continue
        certified += 1
        depth = _depth(cert)
        print(f"{name}: certified (k={k}, tree depth {depth})")
    print(f"{certified} certified, {skipped} outside class")


def _depth(cert) -> int:
    if isinstance(cert, cls.Leaf):
        return 1
    return 1 + max(_depth(cert.left), _depth(cert.right))


if __name__ == "__main__":
    main()
