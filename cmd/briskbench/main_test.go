package main

import (
	"reflect"
	"testing"
)

func TestParseCounts(t *testing.T) {
	ok := []struct {
		in    string
		least int
		want  []int
	}{
		{"1,8", 1, []int{1, 8}},
		{" 0 , 64,,1024 ", 0, []int{0, 64, 1024}},
	}
	for _, c := range ok {
		got, err := parseCounts(c.in, c.least)
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseCounts(%q, %d) = %v, %v; want %v", c.in, c.least, got, err, c.want)
		}
	}
	bad := []struct {
		in    string
		least int
	}{
		{"", 1},
		{" , ", 0},
		{"0", 1},
		{"-1", 0},
		{"1,x", 1},
		{"2.5", 1},
	}
	for _, c := range bad {
		if got, err := parseCounts(c.in, c.least); err == nil {
			t.Errorf("parseCounts(%q, %d) = %v, want an error", c.in, c.least, got)
		}
	}
}
