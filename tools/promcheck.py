"""Check saved Prometheus text pages for family structure.

    python3 tools/promcheck.py metrics.txt r0-metrics.txt ...

Each page must keep the rules cmd/queryd's TestMetricsPagesExposition pins:
every sample's family has exactly one HELP and one TYPE line, both before its
first sample; a family's lines are contiguous (never split or repeated); a
histogram series' buckets never decrease; and its le="+Inf" bucket equals its
_count. Exits non-zero naming the first violating line of each bad page.
"""
import sys


def check(page):
    seen, cur, fam = set(), None, None
    last_bucket, inf = {}, {}
    for n, line in enumerate(page.splitlines(), 1):
        where = "line %d %r" % (n, line)
        f = line.split(" ", 3)
        if len(f) == 4 and f[0] == "#" and f[1] in ("HELP", "TYPE"):
            if f[2] != cur:
                assert f[2] not in seen, "%s: family %s split or repeated" % (where, f[2])
                seen.add(f[2])
                cur, fam = f[2], {"HELP": None, "TYPE": None, "samples": False}
            assert not fam["samples"], "%s: %s after the family's first sample" % (where, f[1])
            assert fam[f[1]] is None, "%s: second %s line" % (where, f[1])
            fam[f[1]] = f[3]
            continue
        head, _, value = line.rpartition(" ")
        value = float(value)
        name, _, labels = head.partition("{")
        hist = fam is not None and fam["TYPE"] == "histogram"
        suffix = name[len(cur):] if hist and name.startswith(cur) else ""
        assert name == cur or suffix in ("_bucket", "_sum", "_count"), \
            "%s: sample outside its family's HELP/TYPE block" % where
        assert fam["HELP"] is not None and fam["TYPE"] is not None, \
            "%s: family %s has no HELP or no TYPE before its first sample" % (where, cur)
        fam["samples"] = True
        if not suffix:
            continue
        parts = [l for l in labels.rstrip("}").split(",") if l]
        le = [l[3:] for l in parts if l.startswith("le=")]
        series = (cur, tuple(l for l in parts if not l.startswith("le=")))
        if suffix == "_bucket":
            assert value >= last_bucket.get(series, value), "%s: bucket below the previous one" % where
            last_bucket[series] = value
            if le == ['"+Inf"']:
                inf[series] = value
        elif suffix == "_count":
            assert inf.get(series) == value, "%s: _count differs from the +Inf bucket %s" % (where, inf.get(series))


bad = 0
for path in sys.argv[1:]:
    try:
        check(open(path).read())
        print("%s: ok" % path)
    except (AssertionError, ValueError) as e:
        print("%s: %s" % (path, e))
        bad += 1
sys.exit(1 if bad else 0)
