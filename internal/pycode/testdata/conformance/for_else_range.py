# for/break/else over ranges.
for i in range(5):
    if i == 3:
        print("break at", i)
        break
else:
    print("no break")

for i in range(3):
    pass
else:
    print("else after", i)

for i in range(0):
    print("never")
else:
    print("empty range else")

for i in range(10, 0, -4):
    if i % 2:
        continue
    print("down", i)

total = 0
for i in range(1, 101):
    total += i
print(total)

items = [1, 2]
for x in items:
    if len(items) < 5:
        items.append(x * 10)
print(items)

for a, b in zip(range(3), "xyz"):
    print(a, b)
