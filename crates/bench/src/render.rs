//! Plain-text rendering of experiment results: aligned tables, horizontal
//! bar charts and log-x miss-rate curves, so `experiments` output reads
//! like the paper's tables and figures.

/// Render an aligned table. `rows` are cells; the first row is a header.
pub fn table(rows: &[Vec<String>]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let cols = rows.iter().map(|r| r.len()).max().unwrap_or(0);
    let mut widths = vec![0usize; cols];
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (ri, row) in rows.iter().enumerate() {
        for (i, cell) in row.iter().enumerate() {
            out.push_str(&format!("{cell:>width$}  ", width = widths[i]));
        }
        out.push('\n');
        if ri == 0 {
            for (i, w) in widths.iter().enumerate() {
                out.push_str(&"-".repeat(*w));
                if i + 1 < cols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        }
    }
    out
}

/// A horizontal bar chart: one `(label, value)` per bar, scaled to `width`
/// characters at `max` (auto when `None`).
pub fn bars(items: &[(String, f64)], width: usize, max: Option<f64>) -> String {
    let max = max.unwrap_or_else(|| {
        items
            .iter()
            .map(|(_, v)| *v)
            .fold(0.0f64, f64::max)
            .max(1e-12)
    });
    let lw = items.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, v) in items {
        let n = ((v / max) * width as f64).round() as usize;
        out.push_str(&format!(
            "{label:<lw$}  {:<width$}  {v:.2}\n",
            "#".repeat(n.min(width)),
        ));
    }
    out
}

/// Render a miss-rate curve family as a size × benchmark table
/// (log-spaced size rows, one column per curve).
pub fn curves(curves: &[crate::experiments::MissCurve]) -> String {
    let mut sizes: Vec<u32> = curves
        .iter()
        .flat_map(|c| c.points.iter().map(|&(s, _)| s))
        .collect();
    sizes.sort_unstable();
    sizes.dedup();
    let mut rows = Vec::new();
    let mut header = vec!["size".to_string()];
    header.extend(curves.iter().map(|c| c.name.to_string()));
    rows.push(header);
    for s in sizes {
        let mut row = vec![human_bytes(s)];
        for c in curves {
            match c.points.iter().find(|&&(ps, _)| ps == s) {
                Some(&(_, rate)) => row.push(format!("{rate:.3}%")),
                None => row.push("-".to_string()),
            }
        }
        rows.push(row);
    }
    table(&rows)
}

/// `1536` → `"1.5K"`, etc.
pub fn human_bytes(b: u32) -> String {
    if b >= 1024 * 1024 {
        format!("{:.1}M", b as f64 / (1024.0 * 1024.0))
    } else if b >= 1024 {
        format!("{:.1}K", b as f64 / 1024.0)
    } else {
        format!("{b}B")
    }
}

/// Downsample a bucket series to at most `cols` columns (summing within
/// each column) so sparklines fit a terminal line.
pub fn resample(buckets: &[u64], cols: usize) -> Vec<u64> {
    if buckets.len() <= cols || cols == 0 {
        return buckets.to_vec();
    }
    let mut out = vec![0u64; cols];
    for (i, &v) in buckets.iter().enumerate() {
        out[i * cols / buckets.len()] += v;
    }
    out
}

/// Sparkline for a bucket series (eviction counts over time).
pub fn sparkline(buckets: &[u64]) -> String {
    const GLYPHS: [char; 8] = [' ', '.', ':', '-', '=', '+', '*', '#'];
    let max = buckets.iter().copied().max().unwrap_or(0).max(1);
    buckets
        .iter()
        .map(|&v| {
            let idx = if v == 0 {
                0
            } else {
                1 + (v * 6 / max) as usize
            };
            GLYPHS[idx.min(7)]
        })
        .collect()
}

/// A JSON string literal (the labels written here need no escaping).
pub fn json_str(s: &str) -> String {
    format!("\"{s}\"")
}

/// One JSON object on one line, `{"key": value, ...}`, from values
/// already rendered as JSON (quote strings with [`json_str`]).
pub fn json_object(fields: &[(&str, String)]) -> String {
    let fields: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// A `BENCH_*.json` document: the `head` fields, then a `rows` array
/// with one object per line, then the `tail` fields, one per line.
pub fn bench_json(head: &[(&str, String)], rows: &[String], tail: &[(&str, String)]) -> String {
    let field = |(k, v): &(&str, String)| format!("  \"{k}\": {v}");
    let rows: Vec<String> = rows.iter().map(|r| format!("    {r}")).collect();
    let mut lines: Vec<String> = head.iter().map(field).collect();
    lines.push(format!("  \"rows\": [\n{}\n  ]", rows.join(",\n")));
    lines.extend(tail.iter().map(field));
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = table(&[
            vec!["name".into(), "value".into()],
            vec!["a".into(), "1".into()],
            vec!["longer".into(), "22".into()],
        ]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("----"));
        assert!(lines[3].contains("longer"));
    }

    #[test]
    fn bars_scale() {
        let b = bars(&[("x".into(), 1.0), ("y".into(), 2.0)], 10, None);
        let lines: Vec<&str> = b.lines().collect();
        let hx = lines[0].matches('#').count();
        let hy = lines[1].matches('#').count();
        assert_eq!(hy, 10);
        assert_eq!(hx, 5);
    }

    #[test]
    fn human_sizes() {
        assert_eq!(human_bytes(128), "128B");
        assert_eq!(human_bytes(1536), "1.5K");
        assert_eq!(human_bytes(2 * 1024 * 1024), "2.0M");
    }

    #[test]
    fn sparkline_extremes() {
        let s = sparkline(&[0, 1, 10]);
        assert_eq!(s.len(), 3);
        assert!(s.starts_with(' '));
        assert!(s.ends_with('#'));
    }

    #[test]
    fn bench_json_layout() {
        let row = |n: u32| json_object(&[("n", n.to_string()), ("s", json_str("x"))]);
        let doc = bench_json(
            &[("w", json_str("c"))],
            &[row(1), row(2)],
            &[("r", "0.5".into())],
        );
        assert_eq!(
            doc,
            "{\n  \"w\": \"c\",\n  \"rows\": [\n    {\"n\": 1, \"s\": \"x\"},\n    \
             {\"n\": 2, \"s\": \"x\"}\n  ],\n  \"r\": 0.5\n}\n"
        );
    }

    #[test]
    fn resample_preserves_total() {
        let b: Vec<u64> = (0..1000).map(|i| i % 7).collect();
        let r = resample(&b, 60);
        assert_eq!(r.len(), 60);
        assert_eq!(r.iter().sum::<u64>(), b.iter().sum::<u64>());
        assert_eq!(resample(&[1, 2, 3], 60), vec![1, 2, 3]);
    }
}
