# The outermost iterable of a generator expression is evaluated when the
# generator is created; everything else runs when an item is pulled.
def source():
    print("source evaluated")
    return [1, 2, 3]


def show(x):
    print("element", x)
    return x


g = (show(x) for x in source())
print("created")
print(sum(g))

xs = [1, 2]
g = (x for x in xs)
xs = [9, 9, 9]
print(list(g))

limit = 1
g = (x for x in range(5) if x > limit)
limit = 3
print(list(g))

try:
    g = (x for x in 42)
except TypeError:
    print("TypeError at creation")
