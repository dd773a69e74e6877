package main

import (
	"fmt"

	"example/internal/a"
)

// codec's method shares its name with a.Encode, which only a test
// calls: a gate that resolves by name would count this as a use.
type codec struct{}

func (codec) Encode() {}

func main() {
	fmt.Println(a.Used())
	codec{}.Encode()
}
