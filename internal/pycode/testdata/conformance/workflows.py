# The PE bodies of the isprime and wordcount workflows, as plain functions
# over fixed inputs.
from collections import defaultdict


def is_prime(num):
    if num >= 2 and all(num % i != 0 for i in range(2, num)):
        return num


def print_prime(num):
    print("the num %s is prime" % num)


print([n for n in range(60) if is_prime(n)])
print(is_prime(1), is_prime(2), is_prime(997), is_prime(1000))
for n in [2, 9, 13, 561, 983]:
    r = is_prime(n)
    if r is not None:
        print_prime(r)

count = defaultdict(int)


def count_words(inputs):
    word, c = inputs["input"]
    count[word] += c


words = ["stream", "data", "flow", "serverless", "registry", "laminar"]
for i in range(40):
    count_words({"input": (words[(i * 7) % 5], 1)})
for word in count.keys():
    print((word, count[word]))
