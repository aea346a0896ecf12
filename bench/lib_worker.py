"""Long-lived skewdyck library process for the ``lib-queries`` workload.

Usage::

    python bench/lib_worker.py [--trace-out PATH]

Reads one JSON request (a session) per line from stdin and answers each with
one JSON line on stdout, until stdin closes.  A session builds a
``dp_table`` (colour marker on), which replaces the previous one, reads it
with ``CountTable`` lookups and asks explicit-formula queries::

    {"id": 1, "family": "bounded", "length": 98,
     "lookups": [["count", n, j, cls, k], ["wpoly", n, j]],
     "formulas": [["primal", j, m], ["dual", j, N], ["red", n]]}

The reply is ``{"id": 1, "lookups": [...], "formulas": [...]}``, or
``{"id": 1, "error": "..."}``.  Rationals are sent as ``int`` when
integral, else as ``"p/q"``; a ``WPoly`` is sent as its coefficient list.
With ``--trace-out`` every call is traced and the spans are written to PATH
at end of input.
"""

import json
import sys
from fractions import Fraction


def encode(value):
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else str(value)
    if isinstance(value, int):
        return value
    return [encode(c) for c in value.coeffs]  # WPoly


class Worker:
    def __init__(self):
        from skewdyck import dp, formulas

        self.dp = dp
        self.formulas = {
            "primal": formulas.primal_coeff_explicit,
            "dual": formulas.dual_coeff_explicit,
            "red": formulas.red_coeff_explicit,
        }
        self.table = None

    def handle(self, request):
        self.table = None  # release the previous table before building
        self.table = self.dp.dp_table(request["family"], request["length"])
        lookups = []
        for kind, n, j, *rest in request["lookups"]:
            if kind == "count":
                cls, k = rest
                lookups.append(self.table.count(n, j, cls=cls, k=k))
            else:
                lookups.append(self.table.wpoly(n, j))
        formulas = [self.formulas[name](*args) for name, *args in request["formulas"]]
        return {"lookups": [encode(v) for v in lookups], "formulas": [encode(v) for v in formulas]}


def main(argv):
    tracer = None
    if argv[:1] == ["--trace-out"]:
        from tracer import Tracer

        tracer = Tracer().install()
    worker = Worker()
    try:
        for line in sys.stdin:
            request = json.loads(line)
            if tracer is not None:
                tracer.job = request["id"]
            try:
                reply = {"id": request["id"], **worker.handle(request)}
            except Exception as exc:  # reported to the client as a failed job
                reply = {"id": request["id"], "error": f"{type(exc).__name__}: {exc}"}
            sys.stdout.write(json.dumps(reply) + "\n")
            sys.stdout.flush()
    finally:
        if tracer is not None:
            tracer.dump(argv[1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
