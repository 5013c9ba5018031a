"""A fixed piece of work whose run time measures the host's speed.

``run.py`` starts this file as its own interpreter after every CLI job.
Like a job, it pays for an interpreter start and then runs pure-Python
work of karyhom's kind (sparse rows as dicts, exact integer
elimination, twice), but it shares no code with karyhom, so only the host's
speed can change how long it takes.
"""

for _pass in range(2):
    x, rows = 12345, []
    for _ in range(30):
        row = {}
        for _ in range(6):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            row[x % 30] = (x >> 8) % 7 - 3
        rows.append({c: v for c, v in row.items() if v})
    pivots = []
    for row in rows:
        for col, pivot in pivots:
            if col in row:
                a, b = pivot[col], row[col]
                row = {c: a * row.get(c, 0) - b * pivot.get(c, 0) for c in row.keys() | pivot.keys()}
                row = {c: v for c, v in row.items() if v}
        if row:
            pivots.append((min(row), row))
