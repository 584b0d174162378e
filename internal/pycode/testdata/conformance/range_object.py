# range is a lazy arithmetic sequence: len, indexing, membership and repr
# need no materialised list.
r = range(2, 20, 3)
print(len(r), r[0], r[2], r[-1], r[-6])
print(list(r))
print(list(range(10, 0, -3)), list(range(0, -5, -1)), list(range(5)))
print(len(range(5, 5)), list(range(5, 1)), len(range(1, 5, -1)))
print(bool(range(0)), bool(range(1)), not range(3, 3))
print(5 in r, 6 in r, 20 in r, 2 in r, 17 in r, 1 in r)
print(-1 in range(0, -10, -1), 0 in range(0, -10, -1), -10 in range(0, -10, -1))
print(3.0 in range(5), 2.5 in range(5), "a" in range(3), True in range(2))
print(range(5), range(1, 5), range(0, 10, 2), repr(range(3, -3, -1)))
print(str(range(2)), [range(1)])
print(range(10)[2:5], list(range(10)[2:5]), range(0, 20, 2)[3:], range(10)[-3:])
print(range(0) == range(2, 2), range(3) == range(0, 3, 1), range(1, 2, 5) == range(1, 3, 7))
print(range(3) == range(4), range(3) == [0, 1, 2])
print(tuple(range(3)), sum(range(101)), list(reversed(range(4))), sorted(range(3), reverse=True))
print(len(range(40_000_000)), range(40_000_000)[-1], 39_999_999 in range(40_000_000))
print(len(range(10**12)), range(10**12)[10**11])
try:
    range(3)[3]
except IndexError:
    print("IndexError")
try:
    range(1, 5, 0)
except ValueError:
    print("ValueError")
print(10**17 in range(0, 10**18, 2), 10**17 + 1 in range(0, 10**18, 2), 1e30 in range(10))
