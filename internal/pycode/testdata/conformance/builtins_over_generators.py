# The builtins that consume an iterable pull from generators item by item.
def noisy(tag, n):
    return (show(tag, x) for x in range(n))


def show(tag, x):
    print(tag, x)
    return x


print(sum(x * x for x in range(5)), sum((x for x in range(4)), 10))
print(min(x % 7 for x in range(10, 20)), max(-x for x in range(5)))
print(max((len(w), w) for w in ["a", "ccc", "bb"]))
print(min((w for w in ["pear", "fig", "apple"]), key=len), max("b", "a", "c"))
print(sorted((x % 4 for x in range(10)), reverse=True))
print(sorted(w for w in ["b", "c", "a"]))
print(list(enumerate(x * 2 for x in range(3))), list(enumerate("ab", 1)))
print(list(zip(range(3), (c for c in "abcd"))))
print(list(zip(noisy("a", 3), noisy("b", 2))))
for i, x in enumerate(noisy("e", 2)):
    print("got", i, x)
print(list(map(lambda x: x + 1, range(3))), list(map(str, noisy("m", 2))))
print(list(filter(None, [0, 1, 2, 0, 3])), list(filter(lambda x: x % 2, range(6))))
print(", ".join(str(x) for x in range(4)), "".join(c for c in "abc" if c != "b"))
print(sorted(set(x % 3 for x in range(10))), tuple(c for c in "hi"))
print(dict((k, len(k)) for k in ["a", "bb"]), list(x for x in (1, 2)))
g = (x for x in range(10))
print(3 in g, list(g))
print(5 in (show("in", x) for x in range(3)))
try:
    min(x for x in [])
except ValueError:
    print("ValueError")
