# all() and any() stop pulling from a generator at the first item that
# decides them, so a side-effecting element runs only that often.
def noisy(x):
    print("noisy", x)
    return x >= 3


print(any(noisy(x) for x in [1, 2, 3, 4]))
print(all(not noisy(x) for x in [1, 2, 3, 4]))
print(any(noisy(x) for x in []), all(noisy(x) for x in []))

calls = []


def seen(x):
    calls.append(x)
    return x != 0


print(all(seen(x) for x in range(5, -5, -1)), calls)
print(any(x > 2 for x in range(10**9)))
