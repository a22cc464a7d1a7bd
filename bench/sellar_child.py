"""One Sellar discipline (or the objective) as a line-protocol child process.

Usage: python sellar_child.py f1|f2|objective

Stdlib only. The formulas are those of ``mdots.problems.sellar_problem``;
a math domain or range error answers with ``status: error``, which the
adapter turns into a NaN row, as numpy's NaN/inf would be.
"""

import json
import math
import sys


def f1(z, y):
    return [z[0] + z[1] ** 2 + z[2] - 0.2 * y[0]]


def f2(z, y):
    return [math.sqrt(y[0]) + z[0] + z[1]]


def objective(z, y):
    return [z[0] + z[2] ** 2 + y[0] + math.exp(-y[1]) + 10.0 * math.cos(z[1])]


def main():
    fn = {"f1": f1, "f2": f2, "objective": objective}[sys.argv[1]]
    for line in sys.stdin:
        request = json.loads(line)
        try:
            response = {"id": request["id"], "status": "ok", "y_out": fn(request["z"], request["y_in"]), "message": ""}
        except (ValueError, OverflowError) as exc:
            response = {"id": request["id"], "status": "error", "y_out": [], "message": str(exc)}
        sys.stdout.write(json.dumps(response) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
