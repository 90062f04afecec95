package units

import "testing"

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"10MB", 10 << 20, false},
		{"512KB", 512 << 10, false},
		{"2GB", 2 << 30, false},
		{"1.5MB", 3 << 19, false},
		{"100", 100, false},
		{"100B", 100, false},
		{" 10mb ", 10 << 20, false},
		{"", 0, true},
		{"abc", 0, true},
		{"-5MB", 0, true},
		// Each of these used to come back as math.MinInt64 with a nil
		// error, which the server reads as "no limit".
		{"inf", 0, true},
		{"NaN", 0, true},
		{"1e30GB", 0, true},
		{"9223372036854775807", 0, true},
	}
	for _, tc := range cases {
		got, err := ParseSize(tc.in)
		if tc.err {
			if err == nil {
				t.Fatalf("ParseSize(%q) = %d, want error", tc.in, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Fatalf("ParseSize(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
}

func TestFormatSize(t *testing.T) {
	cases := map[int64]string{
		100:      "100B",
		2 << 10:  "2.0KB",
		10 << 20: "10.0MB",
		3 << 30:  "3.0GB",
	}
	for in, want := range cases {
		if got := FormatSize(in); got != want {
			t.Fatalf("FormatSize(%d) = %q, want %q", in, got, want)
		}
	}
}
