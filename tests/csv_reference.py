"""Reference path of the artifact writer: the row-at-a-time csv.writer
format that `sparse_isac.alloc._write_csv` reproduces column by column."""
import csv


def write_csv_rows(path, header, rows, comment=None) -> None:
    """An optional `# comment` line, a header row, then the rows, with every
    float at .12g and any other cell left to csv.writer."""
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([f"{x:.12g}" if isinstance(x, float) else x for x in row] for row in rows)
