"""Record the reference outputs the benchmark checks deterministic items against.

Run from the root of a checkout, on the commit whose outputs are to be kept::

    python3 perfbench/make_reference.py

It writes ``perfbench/reference.json``: for each workload, the output of
every item its ``reference_items()`` lists (formula and oracle values on the
whole crossval grid; every sweep curve, immunity scan and the controlling
pattern comparison; the exit code, stdout and ``-o`` file of every README
command line of the cli workload). The workloads check their items against
these same keys.
"""

from __future__ import annotations

import json
import shutil
import tempfile

from run import HERE, OUT, import_program


def main() -> None:
    import_program()
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=OUT)
    reference = {}
    try:
        for name, cls in WORKLOADS.items():
            workload = cls(0, {}, tmp)
            workload.set_up()
            reference[name] = {key: produce() for key, produce in workload.reference_items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    with open(HERE / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
