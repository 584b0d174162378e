# A generator expression is single-pass: once drained it stays empty.
g = (x * x for x in range(4))
print(list(g))
print(list(g), sum(g), any(g), all(g))

h = (c.upper() for c in "abc")
for c in h:
    print("first pass", c)
    if c == "B":
        break
for c in h:
    print("second pass", c)
print(list(h))

m = map(lambda x: x + 1, range(3))
print(list(m), list(m))
z = zip("ab", range(5))
print(list(z), list(z))
