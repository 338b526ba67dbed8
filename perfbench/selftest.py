"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Checks that:

  * path3's tree quotient at bound 3 has its known 335 names, and on it
    the budgeted enumerator yields exactly the within-bound tensors that
    filtering all_basis_tensors gives (335 / 158 / 57 at arities 1 / 2 / 3);
  * two repetitions with the same seed give identical counts and
    verdicts, and a second seed gives identical counts;
  * a tampered model yields failed operations and a result, not a crash.

Exits 0 when every check holds, 1 otherwise.
"""

import sys
import time

import run

SEEDS = (11, 12)


def check(ok, label):
    print("%s %s" % ("PASS" if ok else "FAIL", label))
    return ok


def enumerator():
    from ainfkit.category import stasheff_defect
    from ainfkit.homquot import homotopy_quotient
    from ainfkit.quiver import all_basis_tensors
    import workloads

    P = homotopy_quotient(workloads.path3(1), {1}, 3)
    names = workloads.name_count(P)
    ok = check(names == workloads.PATH3_HQ_NAMES[3],
               "path3.hq at bound 3 has %d names" % names)
    tensors = []
    for k, want in enumerate(workloads.BASIS_TENSORS, start=1):
        walked = list(workloads.bounded_tensors(P, k))
        filtered = [t for t in all_basis_tensors(P.quiver, k)
                    if P.within_bound(*t)]
        ok &= check(sorted(walked, key=repr) == sorted(filtered, key=repr)
                    and len(walked) == want,
                    "arity %d: %d walked, %d filtered, %d known"
                    % (k, len(walked), len(filtered), want))
        tensors += [(k, t) for t in walked]
    t0 = time.perf_counter()
    zero = all(stasheff_defect(P, k, *t).is_zero for k, t in tensors)
    ok &= check(zero, "%d within-bound tensors through stasheff_defect, "
                "all zero, in %.3f s" % (len(tensors), time.perf_counter() - t0))
    return ok


def summary(rep):
    return (rep["attempted"], rep["failed"], rep["verdict_ops"],
            rep["mismatches"])


def repeatability():
    ok = True
    for name in run.NAMES:
        first = run.child(name, SEEDS[0], False)
        again = run.child(name, SEEDS[0], False)
        other = run.child(name, SEEDS[1], False)
        ok &= check(summary(first) == summary(again) and first["failed"] == 0,
                    "%s: same seed, same counts and verdicts (%d operations)"
                    % (name, first["attempted"]))
        ok &= check(summary(first) == summary(other),
                    "%s: second seed, same counts" % name)
    return ok


def tampering():
    ok = True
    for name in run.NAMES:
        rep = run.repetition(name, SEEDS[0], tamper=True)
        ok &= check(rep["failed"] > 0,
                    "%s: tampered model gives failed_share %.4f (%d of %d)"
                    % (name, rep["failed"] / rep["attempted"], rep["failed"],
                       rep["attempted"]))
    return ok


def main():
    run.load_package()
    ok = enumerator()
    ok &= repeatability()
    ok &= tampering()
    print("selftest %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
