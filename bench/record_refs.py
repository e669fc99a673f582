"""Write bench/refs.json: reference moment rows for the benchmark's fixed requests.

Run from the repository root as `PYTHONPATH=src python3 bench/record_refs.py`.
The committed file was recorded at the benchmark's first commit.  It covers
the seed-independent moment requests that succeed there: the k = 2 theta
rows (k = 1 rows are checked by Parseval instead) and the l-moment rows.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from thetamoments import cli

sys.path.insert(0, str(Path(__file__).parent))
import workloads  # noqa: E402


def main():
    refs = {}
    requests = [r for r in workloads.build("theta_scan", 0).requests if r[r.index("--k") + 1] != "1"]
    requests += [r for r in workloads.build("l_sweep", 0).requests if r[0] == "l-moment"]
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as out:
        for argv in requests:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.run([*argv, "--out", out])
            if rc == 0:
                _, rows = workloads.parse_csv(buf.getvalue())
                refs[" ".join(argv)] = [[int(r["q"]), int(r["k"]), int(r["family_size"]),
                                         float(r["raw"])] for r in rows]
    path = Path(__file__).with_name("refs.json")
    body = ",\n".join(f"{json.dumps(k)}: [\n" + ",\n".join(json.dumps(r) for r in rows) + "]"
                       for k, rows in refs.items())
    path.write_text("{\n" + body + "\n}\n")
    print(f"{len(refs)} requests recorded in {path}")


if __name__ == "__main__":
    main()
