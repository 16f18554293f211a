# Cyclomatic complexity and token accounting on a few function styles.
# Decision points: if/elif, loops, ternaries, except handlers, boolean
# operators (n-1 per chain), comprehension filters, match cases. The
# metrics are read from featurize's row, where they follow the 22 graph
# features.

from cegraph import featurize

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
        row = featurize(code)
        print(f"{label}:")
        print(f"  cc_total={row['cc_total']:g}  cc_mean={row['cc_mean']:.2f}")
        print(f"  token_total={row['token_total']:g}  token_mean={row['token_mean']:.1f}  "
              f"param_total={row['param_total']:g}")
        print(f"  nesting_max={row['nesting_max']:g}")
        print()


if __name__ == "__main__":
    main()
