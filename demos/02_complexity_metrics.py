# Cyclomatic complexity and token accounting on a few function styles.
# Decision points: if/elif, loops, ternaries, except handlers, boolean
# operators (n-1 per chain), comprehension filters, match cases.

from cegraph import compute_complexity, parse_to_graph

CASES = {
    "straight-line": '''\
def add(a, b):
    return a + b
''',
    "branchy": '''\
def classify(x):
    if x < 0:
        return "neg"
    elif x == 0:
        return "zero"
    elif x < 10:
        return "small"
    return "big"
''',
    "boolops-and-filters": '''\
def pick(items, lo, hi):
    keep = [v for v in items if v >= lo if v <= hi]
    return keep or None


def valid(a, b, c):
    return a and b and c
''',
    "module-level only": '''\
x = [i * i for i in range(10)]
print(sum(x))
''',
}


def main():
    for label, code in CASES.items():
        m = compute_complexity(parse_to_graph(code), code)
        print(f"{label}:")
        print(f"  cc_total={m.cc_total}  cc_mean={m.cc_mean:.2f}")
        print(f"  token_total={m.token_total}  token_mean={m.token_mean:.1f}  "
              f"param_total={m.param_total}")
        print(f"  nesting_max={m.nesting_max}")
        print()


if __name__ == "__main__":
    main()
