#!/usr/bin/env python3
"""Independent COUNT oracle: every JOB query's row count, checked against SQLite.

Loads the CSV export of the synthetic IMDB database into an in-memory
SQLite database (Python's stdlib sqlite3, no other dependency), runs each
of the 113 JOB queries there with its select list rewritten to COUNT(*),
and checks that count against the row count `jobench run` prints for the
same query and scale, both at jobench's default seed. Exits 1 on any
disagreement.

  python3 test/sqlite_count.py [--jobench PATH] [--scale S]

Run it from the repository root after `dune build`. At --scale 0.001 it
takes about 15 s on a 2-core host, most of it in the 226 `jobench` runs.

Loading: one CSV per table from `jobench generate`. Column types (`i`
int, `s` string) come from lib/datagen/imdb_schema.ml, and an empty CSV
field is NULL, as in the engine's own CSV import. LIKE is made
case-sensitive (PRAGMA case_sensitive_like), as in the engine.

MIN is left out on purpose: the engine takes MIN of a string column over
its dictionary codes, which follow insertion order, not over the strings,
so it disagrees with SQL's lexicographic MIN on most queries. Mending that
changes the committed golden answers of the end-to-end benchmark, so the
MIN half of this check waits for that recapture.
"""

import argparse
import csv
import os
import re
import sqlite3
import subprocess
import sys
import tempfile

SCHEMA = os.path.join("lib", "datagen", "imdb_schema.ml")


def schema_tables(path):
    """[(table, [(column, 'i' | 's')])] in declaration order."""
    text = open(path).read()
    tables = []
    for m in re.finditer(r'name = "(\w+)";.*?columns\s*=\s*\[(.*?)\]', text, re.S):
        columns = re.findall(r'\b([is]) "(\w+)"', m.group(2))
        tables.append((m.group(1), [(c, ty) for ty, c in columns]))
    if len(tables) != 21:
        sys.exit(f"{path}: expected 21 tables, parsed {len(tables)}")
    return tables


def load(conn, tables, data_dir):
    for name, columns in tables:
        decl = ", ".join(
            f"{c} {'INTEGER' if ty == 'i' else 'TEXT'}" for c, ty in columns
        )
        conn.execute(f"CREATE TABLE {name} ({decl})")
        with open(os.path.join(data_dir, name + ".csv"), newline="") as f:
            reader = csv.reader(f)
            header = next(reader)
            if header != [c for c, _ in columns]:
                sys.exit(f"{name}.csv: header {header} does not match the schema")
            convert = [int if ty == "i" else str for _, ty in columns]
            rows = (
                [None if v == "" else conv(v) for conv, v in zip(convert, row)]
                for row in reader
            )
            marks = ", ".join("?" * len(columns))
            conn.executemany(f"INSERT INTO {name} VALUES ({marks})", rows)


def jobench(binary, *args):
    return subprocess.run(
        [binary, *args], check=True, capture_output=True, text=True
    ).stdout


def query_names(binary):
    names = []
    for line in jobench(binary, "list").splitlines():
        if line.startswith("family"):
            names.extend(line.split(":", 1)[1].split())
    return names


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobench", default=os.path.join("_build", "default", "bin", "jobench.exe"))
    ap.add_argument("--scale", default="0.001")
    args = ap.parse_args()
    db_args = ["--scale", args.scale]

    conn = sqlite3.connect(":memory:")
    conn.execute("PRAGMA case_sensitive_like = ON")
    with tempfile.TemporaryDirectory() as data_dir:
        jobench(args.jobench, "generate", "--dir", data_dir, *db_args)
        load(conn, schema_tables(SCHEMA), data_dir)

    names = query_names(args.jobench)
    if len(names) != 113:
        sys.exit(f"expected 113 JOB queries, `jobench list` gave {len(names)}")
    mismatches = 0
    for name in names:
        sql = jobench(args.jobench, "show", name, *db_args).splitlines()[0]
        count_sql = re.sub(r"^SELECT .*? FROM ", "SELECT COUNT(*) FROM ", sql)
        if count_sql == sql:
            sys.exit(f"{name}: cannot rewrite the select list of: {sql}")
        (expected,) = conn.execute(count_sql).fetchone()
        out = jobench(args.jobench, "run", name, *db_args)
        m = re.search(r"^(\d+) rows in ", out, re.M)
        got = int(m.group(1)) if m else None
        if got != expected:
            mismatches += 1
            shown = got if m else "no row count (timed out?)"
            print(f"{name}: jobench {shown}, SQLite {expected}")
    agreed = len(names) - mismatches
    print(f"COUNT agrees with SQLite on {agreed}/{len(names)} queries at scale {args.scale}")
    sys.exit(1 if mismatches else 0)


if __name__ == "__main__":
    main()
