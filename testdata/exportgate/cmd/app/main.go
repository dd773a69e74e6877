package main

import "example/internal/a"

func main() { a.Used() }
