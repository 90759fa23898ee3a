//! Just enough JSON output for the result lines.

/// A JSON value.
pub enum Json {
    /// A boolean.
    Bool(bool),
    /// An integer.
    Int(i64),
    /// A number (non-finite values print as 0).
    Num(f64),
    /// A string.
    Str(String),
    /// An object.
    Obj(Obj),
}

/// A JSON object with keys in insertion order.
#[derive(Default)]
pub struct Obj(Vec<(String, Json)>);

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Appends a key.
    pub fn with(mut self, key: &str, v: Json) -> Obj {
        self.0.push((key.to_string(), v));
        self
    }

    /// Appends a key in place.
    pub fn push(&mut self, key: &str, v: Json) {
        self.0.push((key.to_string(), v));
    }
}

fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Json {
    fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(x) if x.is_finite() => out.push_str(&format!("{x:?}")),
            Json::Num(_) => out.push('0'),
            Json::Str(s) => escape(s, out),
            Json::Obj(o) => o.write(out),
        }
    }
}

impl Obj {
    fn write(&self, out: &mut String) {
        out.push('{');
        for (i, (k, v)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            escape(k, out);
            out.push_str(": ");
            v.write(out);
        }
        out.push('}');
    }
}

impl std::fmt::Display for Obj {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}
