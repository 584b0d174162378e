# List, set and dict comprehensions.
print([x * x for x in range(6) if x % 2 == 0])
print({w: len(w) for w in ["stream", "flow", "data"]})
print({k: v for k, v in [("a", 1), ("b", 2)] if v > 1})
print(sorted({x % 3 for x in range(10)}), {c for c in "aab"} == {"a", "b"})
xs = [1, 2, 3]
print([x for x in xs if x != 2], [c.upper() for c in "abc"])
print([(i, c) for i, c in enumerate("xy")])
d = {"b": 2, "a": 1}
print([k for k in d], [d[k] * 10 for k in sorted(d)], {v: k for k, v in d.items()})
x = "outer"
print([x for x in range(3)], x)
print([[j for j in range(i)] for i in range(4)])
print({i: [c] for i, c in zip(range(2), "pq")})
