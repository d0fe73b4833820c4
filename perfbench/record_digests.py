#!/usr/bin/env python3
"""Record the digests the describe-range check compares against.

For each (TRV multiplicities, n) of corpus.DESCRIBE_CONFIGS, the harness's
own cover oracle lists the nontrivial partitions of 1..n that no union of
split patterns gives; digests.json keeps a hash of each list. matrange is
not used. Run: python3 perfbench/record_digests.py
"""

import json

import corpus
import exact
from workloads import DIGESTS, digest, digest_key


def main():
    digests = {}
    for _, mults, n in corpus.DESCRIBE_CONFIGS:
        bad = [p for p in exact.partitions_upto(n) if exact.cover(p, mults) is None]
        digests[digest_key(mults, n)] = digest(bad)
        print(f"{digest_key(mults, n)}: {len(bad)} uncoverable")
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
