//! A flat JSON object writer for the benchmark's raw output (the crate
//! has no dependencies beyond the repository's own).

use td_experiments::journal::fnv1a;

/// Fields of one JSON object, in insertion order.
#[derive(Default)]
pub struct Obj {
    fields: Vec<(String, String)>,
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Obj {
    pub fn num(&mut self, key: &str, v: f64) {
        self.fields.push((key.to_owned(), number(v)));
    }

    pub fn int(&mut self, key: &str, v: u64) {
        self.fields.push((key.to_owned(), v.to_string()));
    }

    pub fn str(&mut self, key: &str, v: &str) {
        self.fields.push((key.to_owned(), string(v)));
    }

    pub fn nums(&mut self, key: &str, vs: &[f64]) {
        let items: Vec<String> = vs.iter().map(|&v| number(v)).collect();
        self.fields
            .push((key.to_owned(), format!("[{}]", items.join(","))));
    }

    /// One array of numbers per row.
    pub fn rows(&mut self, key: &str, rows: &[Vec<f64>]) {
        let items: Vec<String> = rows
            .iter()
            .map(|r| r.iter().map(|&v| number(v)).collect::<Vec<_>>().join(","))
            .map(|r| format!("[{r}]"))
            .collect();
        self.fields
            .push((key.to_owned(), format!("[{}]", items.join(","))));
    }

    pub fn strs(&mut self, key: &str, vs: &[String]) {
        let items: Vec<String> = vs.iter().map(|v| string(v)).collect();
        self.fields
            .push((key.to_owned(), format!("[{}]", items.join(","))));
    }

    pub fn obj(&mut self, key: &str, o: Obj) {
        self.fields.push((key.to_owned(), o.render()));
    }

    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}:{v}", string(k)))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// FNV-1a of `bytes` as 16 hex digits.
pub fn fnv_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a(bytes))
}
