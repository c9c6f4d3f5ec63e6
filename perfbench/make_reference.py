#!/usr/bin/env python3
"""Regenerate perfbench/reference.json, the stored behaviour fingerprints.

    python3 perfbench/make_reference.py

Runs one untraced repetition of every workload at the default seed and
stores its outputs. Run it from the root of a checkout only after a
deliberate behaviour change, and say in the change which outputs moved.
"""

import json

import workload

DEFAULT_SEED = 1

if __name__ == "__main__":
    reference = {name: {str(DEFAULT_SEED): make(DEFAULT_SEED).outputs}
                 for name, make in workload.REPS.items()}
    workload.REFERENCE.write_text(json.dumps(reference, indent=1,
                                             sort_keys=True) + "\n")
    print(f"wrote {workload.REFERENCE}")
